// Tiny command-line flag parser for the bench/example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name`. Unknown flags throw, so typos fail fast instead of silently
// running the wrong experiment.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rap::util {

class CliFlags {
 public:
  /// Parses argv (argv[0] is skipped). Throws std::invalid_argument on
  /// malformed input such as a non-flag token.
  CliFlags(int argc, const char* const* argv);

  /// Builds directly from tokens (for tests).
  explicit CliFlags(const std::vector<std::string>& tokens);

  [[nodiscard]] bool has(std::string_view name) const;

  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string_view fallback) const;
  [[nodiscard]] std::int64_t get_int(std::string_view name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view name, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view name, bool fallback) const;

  /// Names that were provided but never queried; lets binaries reject typos.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  void parse(const std::vector<std::string>& tokens);
  [[nodiscard]] std::optional<std::string> raw(std::string_view name) const;

  std::map<std::string, std::string, std::less<>> values_;
  mutable std::map<std::string, bool, std::less<>> queried_;
};

}  // namespace rap::util
