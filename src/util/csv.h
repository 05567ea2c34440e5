// Minimal RFC-4180-style CSV writing and parsing, used by the benchmark
// harnesses to persist figure series next to the printed tables.
#pragma once

#include <filesystem>
#include <functional>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rap::util {

/// Quotes a single CSV field if it contains a comma, quote, or newline.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Streams rows of string fields as CSV. The writer does not own the stream.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Writes one row; fields are escaped as needed.
  void write_row(std::span<const std::string> fields);
  void write_row(std::initializer_list<std::string_view> fields);

  /// Convenience: header then repeated numeric rows with a leading label.
  void write_numeric_row(std::string_view label, std::span<const double> values,
                         int precision = 6);

 private:
  std::ostream* out_;
};

/// Parses CSV text into rows of fields. Handles quoted fields, embedded
/// commas/quotes/newlines, and both \n and \r\n terminators. Throws
/// CsvSyntaxError (a std::invalid_argument) on an unterminated quoted field.
[[nodiscard]] std::vector<std::vector<std::string>> parse_csv(
    std::string_view text);

/// One parsed row plus the 1-based line it started on — quoted fields may
/// span lines, so consumers that report errors positionally need the row's
/// own start, not a running count of '\n' seen.
struct CsvRecord {
  std::size_t line = 0;  ///< 1-based line number of the row's first character
  std::vector<std::string> fields;
};

/// The CSV parsers' own syntax error (an unterminated quoted field), kept
/// distinct from whatever a record callback throws.
class CsvSyntaxError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Streams the rows of `text` to `fn` one at a time, in order, each with its
/// 1-based source line, without materialising the whole table (the record
/// is reused between calls). Throws CsvSyntaxError on an unterminated quoted
/// field, after delivering every row before it.
void for_each_csv_record(std::string_view text,
                         const std::function<void(const CsvRecord&)>& fn);

/// Bytes read from a stream at a time by the std::istream overload.
inline constexpr std::size_t kCsvChunkBytes = 64 * 1024;

/// The same, reading `in` to its end in kCsvChunkBytes chunks, so no more
/// than one chunk and one row of the input is held at once. Yields the same
/// records and lines as the std::string_view overload on the same bytes.
/// Also throws std::runtime_error when the stream reports a read error.
void for_each_csv_record(std::istream& in,
                         const std::function<void(const CsvRecord&)>& fn);

/// parse_csv, but every row carries its 1-based source line so format
/// errors can name the offending line.
[[nodiscard]] std::vector<CsvRecord> parse_csv_records(std::string_view text);

/// Writes rows to a file, creating parent directories. Throws on I/O error.
void write_csv_file(const std::filesystem::path& path,
                    std::span<const std::vector<std::string>> rows);

}  // namespace rap::util
