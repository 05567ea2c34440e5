#include "src/util/csv.h"

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

void for_each_csv_record(std::string_view text,
                         const std::function<void(const CsvRecord&)>& fn) {
  CsvRecord record{1, {}};
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  std::size_t line = 1;  // current source line (1-based)

  const auto end_field = [&] {
    record.fields.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  const auto end_row = [&] {
    end_field();
    fn(record);
    record.fields.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line;
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        end_field();
        field_started = true;  // a comma implies a following (maybe empty) field
        break;
      case '\r':
        break;  // handled by the following \n (or ignored at EOF)
      case '\n':
        end_row();
        ++line;
        record.line = line;
        break;
      default:
        field.push_back(c);
        field_started = true;
        break;
    }
  }
  if (in_quotes) {
    throw CsvSyntaxError(
        "parse_csv: unterminated quote in row starting on line " +
        std::to_string(record.line));
  }
  if (field_started || !field.empty() || !record.fields.empty()) end_row();
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
