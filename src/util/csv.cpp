#include "src/util/csv.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rap::util {

std::string csv_escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
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

void CsvWriter::write_row(std::span<const std::string> fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) *out_ << ',';
    *out_ << csv_escape(fields[i]);
  }
  *out_ << '\n';
}

void CsvWriter::write_row(std::initializer_list<std::string_view> fields) {
  std::size_t i = 0;
  for (const auto field : fields) {
    if (i++ > 0) *out_ << ',';
    *out_ << csv_escape(field);
  }
  *out_ << '\n';
}

void CsvWriter::write_numeric_row(std::string_view label,
                                  std::span<const double> values,
                                  int precision) {
  std::ostringstream row;
  row.precision(precision);
  row << csv_escape(label);
  for (const double v : values) row << ',' << v;
  *out_ << row.str() << '\n';
}

namespace {

/// The CSV state machine behind both for_each_csv_record overloads. It takes
/// the input as chunks of any size, in order: a quote inside a quoted field
/// may open a "" escape, so it waits for the next byte, which may be the
/// first of the next chunk.
class CsvRecordParser {
 public:
  explicit CsvRecordParser(const std::function<void(const CsvRecord&)>& fn)
      : fn_(&fn) {}

  void feed(std::string_view chunk) {
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const char c = chunk[i];
      if (quote_pending_) {
        quote_pending_ = false;
        if (c == '"') {  // "" escape: a literal quote, still quoted
          field_.push_back('"');
          continue;
        }
        in_quotes_ = false;  // the quote closed the field; c is unquoted
      }
      if (in_quotes_) {
        if (c == '"') {
          quote_pending_ = true;
        } else {
          if (c == '\n') ++line_;
          field_.push_back(c);
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
          ++line_;
          record_.line = line_;
          break;
        default: {
          // Copy the run of plain bytes up to the next delimiter at once.
          const std::size_t stop =
              std::min(chunk.find_first_of(",\"\r\n", i), chunk.size());
          field_.append(chunk.substr(i, stop - i));
          field_started_ = true;
          i = stop - 1;
          break;
        }
      }
    }
  }

  /// Ends the input: delivers a last row without a line break, or throws
  /// CsvSyntaxError when a quoted field is still open.
  void finish() {
    if (quote_pending_) in_quotes_ = quote_pending_ = false;
    if (in_quotes_) {
      throw CsvSyntaxError(
          "parse_csv: unterminated quote in row starting on line " +
          std::to_string(record_.line));
    }
    if (field_started_ || !field_.empty() || !record_.fields.empty()) {
      end_row();
    }
  }

 private:
  void end_field() {
    record_.fields.push_back(std::move(field_));
    field_.clear();
    field_started_ = false;
  }
  void end_row() {
    end_field();
    (*fn_)(record_);
    record_.fields.clear();
  }

  const std::function<void(const CsvRecord&)>* fn_;
  CsvRecord record_{1, {}};
  std::string field_;
  bool in_quotes_ = false;
  bool quote_pending_ = false;  // a '"' inside quotes, next byte unseen
  bool field_started_ = false;
  std::size_t line_ = 1;  // current source line (1-based)
};

}  // namespace

void for_each_csv_record(std::string_view text,
                         const std::function<void(const CsvRecord&)>& fn) {
  CsvRecordParser parser(fn);
  parser.feed(text);
  parser.finish();
}

void for_each_csv_record(std::istream& in,
                         const std::function<void(const CsvRecord&)>& fn) {
  CsvRecordParser parser(fn);
  std::vector<char> chunk(kCsvChunkBytes);
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    parser.feed({chunk.data(), static_cast<std::size_t>(in.gcount())});
  }
  if (in.bad()) throw std::runtime_error("for_each_csv_record: read failed");
  parser.finish();
}

std::vector<CsvRecord> parse_csv_records(std::string_view text) {
  std::vector<CsvRecord> rows;
  for_each_csv_record(text,
                      [&](const CsvRecord& record) { rows.push_back(record); });
  return rows;
}

std::vector<std::vector<std::string>> parse_csv(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  for_each_csv_record(text,
                      [&](const CsvRecord& record) {
                        rows.push_back(record.fields);
                      });
  return rows;
}

void write_csv_file(const std::filesystem::path& path,
                    std::span<const std::vector<std::string>> rows) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_csv_file: cannot open " + path.string());
  }
  CsvWriter writer(out);
  for (const auto& row : rows) writer.write_row(row);
  if (!out) {
    throw std::runtime_error("write_csv_file: write failed for " + path.string());
  }
}

}  // namespace rap::util
