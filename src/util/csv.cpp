#include "src/util/csv.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <stdexcept>

#include "src/util/strings.h"
#include "src/util/text_file.h"

namespace rap::util {
namespace {

constexpr std::string_view kCsvSpecials = ",\"\n\r";

}  // namespace

std::string csv_escape(std::string_view field) {
  if (field.find_first_of(kCsvSpecials) == std::string_view::npos) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

CsvWriter::CsvWriter(std::ostream& out)
    : out_(&out),
      buffer_(std::make_unique_for_overwrite<char[]>(kCsvWriteBufferBytes)) {}

CsvWriter::~CsvWriter() {
  try {
    drain();
  } catch (...) {
    // A stream with exceptions enabled; its state already records the error.
  }
}

void CsvWriter::write_row(std::span<const std::string> fields) {
  for (const std::string& f : fields) field(std::string_view(f));
  end_row();
}

CsvWriter& CsvWriter::field(std::string_view text) {
  start_field();
  // Only a field that needs quotes pays for csv_escape's copy.
  if (text.find_first_of(kCsvSpecials) == std::string_view::npos) {
    put(text);
  } else {
    put(csv_escape(text));
  }
  return *this;
}

CsvWriter& CsvWriter::field(std::uint64_t value) {
  start_field();
  char* const at = reserve(20);
  used_ += static_cast<std::size_t>(std::to_chars(at, at + 20, value).ptr - at);
  return *this;
}

CsvWriter& CsvWriter::field(double value, int decimals) {
  start_field();
  used_ += format_fixed_to(reserve(kFormatFixedMaxChars), value, decimals);
  return *this;
}

CsvWriter& CsvWriter::field(std::span<const std::uint32_t> ids,
                            char separator) {
  start_field();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    char* at = reserve(11);
    if (i > 0) *at++ = separator;
    used_ = static_cast<std::size_t>(std::to_chars(at, at + 10, ids[i]).ptr -
                                     buffer_.get());
  }
  return *this;
}

void CsvWriter::end_row() {
  *reserve(1) = '\n';
  ++used_;
  row_open_ = false;
}

void CsvWriter::start_field() {
  if (row_open_) {
    *reserve(1) = ',';
    ++used_;
  }
  row_open_ = true;
}

char* CsvWriter::reserve(std::size_t bytes) {
  if (kCsvWriteBufferBytes - used_ < bytes) drain();
  return buffer_.get() + used_;
}

void CsvWriter::put(std::string_view bytes) {
  while (!bytes.empty()) {
    const std::size_t n = std::min(bytes.size(), kCsvWriteBufferBytes - used_);
    std::memcpy(buffer_.get() + used_, bytes.data(), n);
    used_ += n;
    bytes.remove_prefix(n);
    if (used_ == kCsvWriteBufferBytes) drain();
  }
}

void CsvWriter::drain() {
  if (used_ == 0) return;
  out_->write(buffer_.get(), static_cast<std::streamsize>(used_));
  used_ = 0;
}

namespace {

/// The CSV state machine behind both for_each_csv_record overloads. It takes
/// the input as chunks of any size, in order. A row that lies wholly inside
/// one chunk and holds no quote (nor a '\r' other than its terminator's) is
/// delivered as views into the chunk. Any other row is assembled byte by
/// byte into one reused buffer: a quote inside a quoted field may open a
/// "" escape whose second quote is the next chunk's first byte.
class CsvRecordParser {
 public:
  explicit CsvRecordParser(const CsvRecordFn& fn) : fn_(&fn) {}

  void feed(std::string_view chunk) {
    for (std::size_t i = 0; i < chunk.size();) {
      if (!row_open()) {
        const std::size_t next = deliver_in_place(chunk, i);
        if (next != std::string_view::npos) {
          i = next;
          continue;
        }
      }
      i = assemble(chunk, i);
    }
  }

  /// Ends the input: delivers a last row without a line break, or throws
  /// CsvSyntaxError when a quoted field is still open.
  void finish() {
    if (quote_pending_) in_quotes_ = quote_pending_ = false;
    if (in_quotes_) {
      throw CsvSyntaxError(
          "for_each_csv_record: unterminated quote in row starting on line " +
          std::to_string(row_line_));
    }
    if (row_open()) end_row();
  }

 private:
  [[nodiscard]] bool row_open() const noexcept {
    return field_started_ || in_quotes_ || quote_pending_ || !row_.empty() ||
           !field_ends_.empty();
  }

  /// Delivers the row starting at chunk[i] as views into the chunk if it
  /// qualifies; returns the index past it, or npos to leave it to assemble().
  std::size_t deliver_in_place(std::string_view chunk, std::size_t i) {
    views_.clear();
    std::size_t field = i;
    for (std::size_t j = i; j < chunk.size(); ++j) {
      const char c = chunk[j];
      if (c == ',') {
        views_.push_back(chunk.substr(field, j - field));
        field = j + 1;
      } else if (c == '\n' || c == '\r') {
        const std::size_t next = c == '\n' ? j + 1 : j + 2;
        if (c == '\r' && (next > chunk.size() || chunk[j + 1] != '\n')) {
          return std::string_view::npos;
        }
        views_.push_back(chunk.substr(field, j - field));
        (*fn_)({row_line_, views_});
        row_line_ = ++line_;
        return next;
      } else if (c == '"') {
        return std::string_view::npos;
      }
    }
    return std::string_view::npos;
  }

  /// Runs the state machine from chunk[i] to the end of the current row or
  /// of the chunk, copying field bytes into row_; returns the index past the
  /// last byte consumed.
  std::size_t assemble(std::string_view chunk, std::size_t i) {
    for (; i < chunk.size(); ++i) {
      const char c = chunk[i];
      if (quote_pending_) {
        quote_pending_ = false;
        if (c == '"') {  // "" escape: a literal quote, still quoted
          row_.push_back('"');
          continue;
        }
        in_quotes_ = false;  // the quote closed the field; c is unquoted
      }
      if (in_quotes_) {
        if (c == '"') {
          quote_pending_ = true;
        } else {
          if (c == '\n') ++line_;
          row_.push_back(c);
        }
        continue;
      }
      switch (c) {
        case '"':
          in_quotes_ = true;
          field_started_ = true;
          break;
        case ',':
          end_field();
          field_started_ = true;  // a following (maybe empty) field
          break;
        case '\r':
          break;  // handled by the following \n (or ignored at EOF)
        case '\n':
          end_row();
          row_line_ = ++line_;
          return i + 1;
        default: {
          // Copy the run of plain bytes up to the next delimiter at once.
          const std::size_t stop =
              std::min(chunk.find_first_of(kCsvSpecials, i), chunk.size());
          row_.append(chunk.substr(i, stop - i));
          field_started_ = true;
          i = stop - 1;
          break;
        }
      }
    }
    return i;
  }

  void end_field() {
    field_ends_.push_back(row_.size());
    field_started_ = false;
  }

  void end_row() {
    end_field();
    views_.clear();
    std::size_t start = 0;
    for (const std::size_t end : field_ends_) {
      views_.emplace_back(row_.data() + start, end - start);
      start = end;
    }
    (*fn_)({row_line_, views_});
    row_.clear();
    field_ends_.clear();
  }

  const CsvRecordFn* fn_;
  std::vector<std::string_view> views_;  // the delivered row's fields
  std::string row_;                      // an assembled row's field bytes
  std::vector<std::size_t> field_ends_;  // end of each field in row_
  bool in_quotes_ = false;
  bool quote_pending_ = false;  // a '"' inside quotes, next byte unseen
  bool field_started_ = false;
  std::size_t line_ = 1;      // current source line (1-based)
  std::size_t row_line_ = 1;  // line the current row started on
};

}  // namespace

void for_each_csv_record(std::string_view text, const CsvRecordFn& fn) {
  CsvRecordParser parser(fn);
  parser.feed(text);
  parser.finish();
}

void for_each_csv_record(std::istream& in, const CsvRecordFn& fn) {
  CsvRecordParser parser(fn);
  std::vector<char> chunk(kCsvChunkBytes);
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    parser.feed({chunk.data(), static_cast<std::size_t>(in.gcount())});
  }
  if (in.bad()) throw std::runtime_error("for_each_csv_record: read failed");
  parser.finish();
}

void write_csv_file(const std::filesystem::path& path,
                    std::span<const std::vector<std::string>> rows) {
  write_text_file("write_csv_file", path, [&](std::ostream& out) {
    CsvWriter writer(out);
    for (const auto& row : rows) writer.write_row(row);
  });
}

}  // namespace rap::util
