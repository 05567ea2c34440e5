#include "src/util/cli.h"

#include <charconv>
#include <stdexcept>

#include "src/util/strings.h"

namespace rap::util {
namespace {

[[noreturn]] void fail(std::string_view message, std::string_view token) {
  throw std::invalid_argument(std::string(message) + ": '" +
                              std::string(token) + "'");
}

}  // namespace

CliFlags::CliFlags(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  tokens.reserve(argc > 0 ? static_cast<std::size_t>(argc - 1) : 0);
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  parse(tokens);
}

CliFlags::CliFlags(const std::vector<std::string>& tokens) { parse(tokens); }

void CliFlags::parse(const std::vector<std::string>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (!token.starts_with("--")) fail("CliFlags: expected --flag", token);
    std::string body = token.substr(2);
    if (body.empty()) fail("CliFlags: empty flag", token);

    if (const auto eq = body.find('='); eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    if (body.starts_with("no-")) {
      values_[body.substr(3)] = "false";
      continue;
    }
    // `--name value` when the next token is not a flag; bare `--name`
    // otherwise (boolean true).
    if (i + 1 < tokens.size() && !tokens[i + 1].starts_with("--")) {
      values_[body] = tokens[++i];
    } else {
      values_[body] = "true";
    }
  }
}

std::optional<std::string> CliFlags::raw(std::string_view name) const {
  queried_[std::string(name)] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool CliFlags::has(std::string_view name) const { return raw(name).has_value(); }

std::string CliFlags::get_string(std::string_view name,
                                 std::string_view fallback) const {
  const auto value = raw(name);
  return value ? *value : std::string(fallback);
}

std::int64_t CliFlags::get_int(std::string_view name,
                               std::int64_t fallback) const {
  const auto value = raw(name);
  if (!value) return fallback;
  std::int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value->data(), value->data() + value->size(), out);
  if (ec != std::errc{} || ptr != value->data() + value->size()) {
    fail("CliFlags: not an integer", *value);
  }
  return out;
}

double CliFlags::get_double(std::string_view name, double fallback) const {
  const auto value = raw(name);
  if (!value) return fallback;
  try {
    std::size_t used = 0;
    const double out = std::stod(*value, &used);
    if (used != value->size()) fail("CliFlags: not a number", *value);
    return out;
  } catch (const std::invalid_argument&) {
    fail("CliFlags: not a number", *value);
  } catch (const std::out_of_range&) {
    fail("CliFlags: number out of range", *value);
  }
}

bool CliFlags::get_bool(std::string_view name, bool fallback) const {
  const auto value = raw(name);
  if (!value) return fallback;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  fail("CliFlags: not a boolean", *value);
}

std::vector<std::string> CliFlags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : values_) {
    if (!queried_.contains(name)) out.push_back(name);
  }
  return out;
}

}  // namespace rap::util
