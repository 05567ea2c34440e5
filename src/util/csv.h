// Minimal RFC-4180-style CSV writing and parsing: the text path under the
// network and flow files and the benchmark harnesses' figure series. Both
// directions run without a heap allocation per field: the writer formats
// into one buffer, the parser hands out views.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rap::util {

/// Quotes a single CSV field if it contains a comma, quote, or newline.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Bytes a CsvWriter buffers before handing them to its stream.
inline constexpr std::size_t kCsvWriteBufferBytes = 64 * 1024;

/// Streams CSV rows to a std::ostream it does not own. Fields are formatted
/// straight into one kCsvWriteBufferBytes buffer (numbers with
/// std::to_chars), which reaches the stream when it fills and when the
/// writer is destroyed. Write errors land in the stream's state: check it
/// after the stream is flushed or closed.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out);
  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes one row; fields are escaped as needed.
  void write_row(std::span<const std::string> fields);

  /// Typed appends: each adds one field to the current row, which end_row()
  /// terminates. Text is escaped as csv_escape does; a double is written as
  /// format_fixed(value, decimals) would (throwing as it does); `ids` become
  /// one field of decimal numbers joined by `separator`.
  CsvWriter& field(std::string_view text);
  CsvWriter& field(std::uint64_t value);
  CsvWriter& field(double value, int decimals);
  CsvWriter& field(std::span<const std::uint32_t> ids, char separator);
  void end_row();

 private:
  void start_field();
  char* reserve(std::size_t bytes);  // room for `bytes` at the write position
  void put(std::string_view bytes);
  void drain();  // buffered bytes to the stream

  std::ostream* out_;
  std::unique_ptr<char[]> buffer_;
  std::size_t used_ = 0;
  bool row_open_ = false;  // the current row has a field
};

/// One row as the parsers deliver it: the 1-based line it started on (a
/// quoted field may span lines) and views that point into the input, or
/// into the parser's one reused row buffer for a row that spans read chunks
/// or holds quotes. Valid only during the callback.
struct CsvRecordView {
  std::size_t line = 0;
  std::span<const std::string_view> fields;
};

using CsvRecordFn = std::function<void(const CsvRecordView&)>;

/// The CSV parsers' own syntax error (an unterminated quoted field), kept
/// distinct from whatever a record callback throws.
class CsvSyntaxError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Streams the rows of `text` to `fn` one at a time, in order, each with its
/// 1-based source line, without materialising the whole table or any field.
/// Throws CsvSyntaxError on an unterminated quoted field, after delivering
/// every row before it.
void for_each_csv_record(std::string_view text, const CsvRecordFn& fn);

/// Bytes read from a stream at a time by the std::istream overload.
inline constexpr std::size_t kCsvChunkBytes = 64 * 1024;

/// The same, reading `in` to its end in kCsvChunkBytes chunks, so no more
/// than one chunk and one row of the input is held at once. Yields the same
/// records and lines as the std::string_view overload on the same bytes.
/// Also throws std::runtime_error when the stream reports a read error.
void for_each_csv_record(std::istream& in, const CsvRecordFn& fn);

/// Writes rows to a file, creating parent directories. Throws
/// std::runtime_error naming the file on any I/O error, its close included.
void write_csv_file(const std::filesystem::path& path,
                    std::span<const std::vector<std::string>> rows);

}  // namespace rap::util
