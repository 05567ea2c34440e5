#include "src/util/csv.h"

#include <gtest/gtest.h>

#include "src/util/strings.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace rap::util {
namespace {

TEST(CsvEscape, PlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, QuotesCommas) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscape, DoublesEmbeddedQuotes) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, QuotesNewlines) {
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

/// What a writer leaves in its stream once destroyed, given `rows`.
std::string written(const std::vector<std::vector<std::string>>& rows) {
  std::ostringstream out;
  {
    CsvWriter writer(out);
    for (const auto& row : rows) writer.write_row(row);
  }
  return out.str();
}

TEST(CsvWriter, WritesRows) {
  EXPECT_EQ(written({{"k", "value"}, {"1", "2.5"}}), "k,value\n1,2.5\n");
}

TEST(CsvWriter, EscapesInRows) {
  EXPECT_EQ(written({{"a,b", "c"}}), "\"a,b\",c\n");
}

TEST(CsvWriter, TypedFieldsMatchTheStringForms) {
  // Each typed append writes what the string it replaces would: csv_escape,
  // std::to_string, format_fixed and a '|'-joined id list.
  const std::vector<std::uint32_t> ids{0, 7, 4294967295u};
  std::ostringstream typed;
  {
    CsvWriter writer(typed);
    writer.field("plain").field("a,\"b\"");
    writer.field(std::uint64_t{18446744073709551615u});
    writer.field(-0.0, 2).field(2.5, 0).field(ids, '|').end_row();
    writer.field(std::span<const std::uint32_t>{}, '|').field("").end_row();
  }
  EXPECT_EQ(typed.str(), written({{"plain", "a,\"b\"", "18446744073709551615",
                                   "-0.00", "2", "0|7|4294967295"},
                                  {"", ""}}));
  EXPECT_EQ(typed.str(),
            "plain,\"a,\"\"b\"\"\",18446744073709551615,-0.00,2,"
            "0|7|4294967295\n,\n");
}

// The writer's destruction is its flush.
TEST(CsvWriter, BytesReachTheStreamOnFlushAndWhenTheBufferFills) {
  std::ostringstream out;
  std::string want = "a,b\n";
  {
    CsvWriter writer(out);
    writer.write_row(std::vector<std::string>{"a", "b"});
    EXPECT_EQ(out.str(), "");
    // Rows and one text field longer than the buffer cross it intact.
    const std::string long_field(kCsvWriteBufferBytes + 10, 'z');
    writer.field(long_field).end_row();
    want += long_field + "\n";
    for (std::uint64_t row = 0; want.size() < 3 * kCsvWriteBufferBytes;
         ++row) {
      const double half = static_cast<double>(row) * 0.5;
      writer.field(row).field(half, 3).end_row();
      want += std::to_string(row) + "," + format_fixed(half, 3) + "\n";
    }
    EXPECT_GE(out.str().size(), kCsvWriteBufferBytes);
    EXPECT_EQ(out.str(), want.substr(0, out.str().size()));
  }
  EXPECT_EQ(out.str(), want);
}

/// One delivered row, copied out of the callback's views.
struct Record {
  std::size_t line = 0;
  std::vector<std::string> fields;
};

/// Every record for_each_csv_record delivers from `input` (text or a
/// stream), with its line.
template <typename Input>
std::vector<Record> collect_records(Input& input) {
  std::vector<Record> records;
  for_each_csv_record(input, [&](const CsvRecordView& record) {
    records.push_back(
        {record.line, std::vector<std::string>(record.fields.begin(),
                                               record.fields.end())});
  });
  return records;
}

/// Every record of `text`, read through the std::string_view overload.
std::vector<Record> text_records(std::string_view text) {
  return collect_records(text);
}

/// The fields of every record of `text`.
std::vector<std::vector<std::string>> parse_rows(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  for (Record& record : text_records(text)) {
    rows.push_back(std::move(record.fields));
  }
  return rows;
}

TEST(ParseCsv, SimpleGrid) {
  const auto rows = parse_rows("a,b\nc,d\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseCsv, MissingFinalNewline) {
  const auto rows = parse_rows("a,b");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
}

TEST(ParseCsv, EmptyFields) {
  const auto rows = parse_rows("a,,b\n,\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"", ""}));
}

TEST(ParseCsv, QuotedFields) {
  const auto rows = parse_rows("\"a,b\",\"c\"\"d\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a,b", "c\"d"}));
}

TEST(ParseCsv, QuotedNewline) {
  const auto rows = parse_rows("\"line1\nline2\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
}

TEST(ParseCsv, CrLfTerminators) {
  const auto rows = parse_rows("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseCsv, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_rows("\"abc"), std::invalid_argument);
}

TEST(ParseCsv, EmptyInputYieldsNoRows) {
  EXPECT_TRUE(parse_rows("").empty());
}

TEST(ParseCsvRecords, TracksRowStartLines) {
  const auto records = text_records("a,b\n\"q\nuoted\",c\nlast,row\n");
  ASSERT_EQ(records.size(), 3U);
  EXPECT_EQ(records[0].line, 1U);
  EXPECT_EQ(records[0].fields, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(records[1].line, 2U);  // the quoted field swallows line 3
  EXPECT_EQ(records[2].line, 4U);
  EXPECT_EQ(records[2].fields, (std::vector<std::string>{"last", "row"}));
}

TEST(ParseCsv, RoundTripsThroughWriter) {
  const std::vector<std::vector<std::string>> rows{
      {"plain", "with,comma", "with\"quote"},
      {"", "multi\nline", "end"},
  };
  EXPECT_EQ(parse_rows(written(rows)), rows);
}

TEST(WriteCsvFile, CreatesDirectoriesAndRoundTrips) {
  const auto dir = std::filesystem::temp_directory_path() / "rap_csv_test";
  std::filesystem::remove_all(dir);
  const auto path = dir / "nested" / "out.csv";
  const std::vector<std::vector<std::string>> rows{{"a", "b"}, {"1", "2"}};
  write_csv_file(path, rows);
  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(parse_rows(buffer.str()), rows);
  std::filesystem::remove_all(dir);
}

TEST(WriteCsvFile, WriteErrorAtCloseThrows) {
  // A small file fits the stream's buffer, so /dev/full only refuses it
  // when the file is flushed and closed.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::vector<std::vector<std::string>> rows{{"a", "b"}, {"1", "2"}};
  try {
    write_csv_file("/dev/full", rows);
    ADD_FAILURE() << "expected a write error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("/dev/full"), std::string::npos)
        << error.what();
  }
}

/// Every record of `text` with its line, read through the std::istream
/// overload (in kCsvChunkBytes chunks).
std::vector<Record> stream_records(const std::string& text) {
  std::istringstream in(text);
  return collect_records(in);
}

/// Both overloads yield the same records, lines included.
void expect_same_records(const std::string& text) {
  const std::vector<Record> want = text_records(text);
  const std::vector<Record> got = stream_records(text);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].line, want[i].line) << "record " << i;
    EXPECT_EQ(got[i].fields, want[i].fields) << "record " << i;
  }
}

/// `prefix` padded with 'x' to exactly `size` bytes.
std::string padded(std::string prefix, std::size_t size) {
  prefix.resize(size, 'x');
  return prefix;
}

TEST(CsvStream, MatchesTextOverload) {
  expect_same_records("a,\"b,c\",d\n\"multi\nline\",e\n");  // quoted , and \n
  expect_same_records("a,b\r\nc,d\r\n");
  expect_same_records("a,b\nlast,row");  // no final newline
  expect_same_records("a,\"\"\"q\"\"\",\n,\n");
  expect_same_records("");
}

TEST(CsvStream, MatchesTextOverloadOverManyChunks) {
  // Rows, quoted newlines and \r\n terminators spread over several chunks.
  std::string text;
  for (std::size_t row = 0; text.size() < 3 * kCsvChunkBytes; ++row) {
    text += std::to_string(row) + ",\"q,\n" + std::to_string(row * 7) +
            "\",plain" + (row % 3 == 0 ? "\r\n" : "\n");
  }
  expect_same_records(text);
  EXPECT_GT(stream_records(text).size(), 5'000u);
}

TEST(CsvStream, EscapedQuoteSplitAcrossTheChunkBoundary) {
  // The "" pair's first quote is the chunk's last byte, its second the next
  // chunk's first: one literal quote, still inside the quoted field.
  const std::string text =
      padded("a,\"", kCsvChunkBytes - 1) + "\"\"tail\",b\nc,d\n";
  ASSERT_EQ(text[kCsvChunkBytes - 1], '"');
  ASSERT_EQ(text[kCsvChunkBytes], '"');
  expect_same_records(text);
  const std::vector<Record> records = stream_records(text);
  ASSERT_EQ(records.size(), 2u);
  ASSERT_EQ(records[0].fields.size(), 3u);
  EXPECT_EQ(records[0].fields[1].substr(records[0].fields[1].size() - 5),
            "\"tail");
  EXPECT_EQ(records[0].fields[2], "b");
  EXPECT_EQ(records[1].line, 2u);
}

TEST(CsvStream, ClosingQuoteAtTheChunkBoundary) {
  // The field's closing quote is the chunk's last byte; the next chunk
  // starts with the comma that ends it.
  const std::string text =
      padded("a,\"", kCsvChunkBytes - 1) + "\",b\nc\n";
  ASSERT_EQ(text[kCsvChunkBytes - 1], '"');
  expect_same_records(text);
  const std::vector<Record> records = stream_records(text);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].fields.size(), 3u);
  EXPECT_EQ(records[0].fields[2], "b");
}

TEST(CsvStream, QuotedFieldWithEscapeStraddlesTheChunkBoundary) {
  // Plain rows up to a row whose quoted field holds a "" escape and a line
  // break and runs on past the end of the first chunk.
  std::string text;
  while (text.size() < kCsvChunkBytes - 100) text += "plain,row\n";
  const std::size_t plain_rows = text.size() / 10;
  const std::string field =
      std::string(80, 'q') + "\"" + "\n" + std::string(80, 'r');
  text += "a,\"" + std::string(80, 'q') + "\"\"\n" + std::string(80, 'r') +
          "\",z\nlast,row\n";
  ASSERT_LT(text.find("\"\""), kCsvChunkBytes);
  ASSERT_GT(text.find("\",z"), kCsvChunkBytes);
  expect_same_records(text);
  const std::vector<Record> records = stream_records(text);
  ASSERT_EQ(records.size(), plain_rows + 2);
  const Record& quoted = records[plain_rows];
  EXPECT_EQ(quoted.line, plain_rows + 1);
  EXPECT_EQ(quoted.fields, (std::vector<std::string>{"a", field, "z"}));
  EXPECT_EQ(records.back().line, plain_rows + 3);
  EXPECT_EQ(records.back().fields,
            (std::vector<std::string>{"last", "row"}));
}

TEST(CsvStream, PlainRowStraddlesTheChunkBoundary) {
  const std::string text =
      padded("", kCsvChunkBytes - 5) + "\nabcdefgh,ijk\r\nend\n";
  expect_same_records(text);
  const std::vector<Record> records = stream_records(text);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].line, 2u);
  EXPECT_EQ(records[1].fields, (std::vector<std::string>{"abcdefgh", "ijk"}));
  EXPECT_EQ(records[2].fields, (std::vector<std::string>{"end"}));
}

TEST(CsvStream, UnterminatedQuoteNamesTheSameLine) {
  for (const std::string& text :
       {std::string("a,b\nc,d\ne,\"open\nmore\n"),
        padded("a,b\nc,d\ne,\"open\n", 2 * kCsvChunkBytes + 5)}) {
    std::string want;
    try {
      (void)text_records(text);
    } catch (const CsvSyntaxError& error) {
      want = error.what();
    }
    ASSERT_NE(want.find("line 3"), std::string::npos) << want;
    std::size_t delivered = 0;
    std::istringstream in(text);
    try {
      for_each_csv_record(in, [&](const CsvRecordView&) { ++delivered; });
      ADD_FAILURE() << "no CsvSyntaxError";
    } catch (const CsvSyntaxError& error) {
      EXPECT_EQ(std::string(error.what()), want);
    }
    EXPECT_EQ(delivered, 2u);  // every row before the open quote
  }
}

}  // namespace
}  // namespace rap::util
