#include "src/trace/io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <functional>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/util/csv.h"
#include "src/util/strings.h"
#include "src/util/text_file.h"

namespace rap::trace {
namespace {

constexpr const char* kFlowHeader[] = {
    "origin", "destination", "daily_vehicles", "passengers_per_vehicle",
    "alpha",  "path"};

// Positional error context: failures name the source (file name or
// "<string>") and the 1-based line of the row being parsed.
struct ParsePosition {
  std::string_view source;
  std::size_t line = 0;
};

[[noreturn]] void fail(const ParsePosition& at, const std::string& message) {
  throw std::invalid_argument(std::string(at.source) + ":" +
                              std::to_string(at.line) + ": " + message);
}

using Row = std::span<const std::string_view>;

template <std::size_t N>
void check_header(const ParsePosition& at, Row row,
                  const char* const (&expected)[N]) {
  if (row.size() != N) fail(at, "bad header width");
  for (std::size_t i = 0; i < N; ++i) {
    if (row[i] != expected[i]) {
      fail(at, "bad header column '" + std::string(row[i]) + "' (expected '" +
                   expected[i] + "')");
    }
  }
}

std::uint32_t parse_u32(const ParsePosition& at, std::string_view text) {
  std::uint32_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    fail(at, "not an unsigned integer: '" + std::string(text) + "'");
  }
  return out;
}

/// Decodes a '|'-separated node-id list into `path` (sized exactly) in one
/// pass over its digits. Accepts what parse_u32 accepts per id: one or more
/// decimal digits, any number of them leading zeros, up to 2^32 - 1.
void parse_path(const ParsePosition& at, std::string_view text,
                std::vector<graph::NodeId>& path) {
  path.reserve(static_cast<std::size_t>(
                   std::count(text.begin(), text.end(), '|')) + 1);
  std::size_t token = 0;  // where the current id starts
  std::uint64_t value = 0;
  for (std::size_t i = 0;; ++i) {
    if (i == text.size() || text[i] == '|') {
      if (i == token) break;  // empty id
      path.push_back(static_cast<graph::NodeId>(value));
      if (i == text.size()) return;
      token = i + 1;
      value = 0;
      continue;
    }
    const auto digit = static_cast<unsigned char>(text[i] - '0');
    value = value * 10 + digit;
    if (digit > 9 || value > ~std::uint32_t{0}) break;
  }
  const std::string_view bad = text.substr(token);
  fail(at, "not an unsigned integer: '" +
               std::string(bad.substr(0, bad.find('|'))) + "'");
}

double parse_double(const ParsePosition& at, std::string_view text) {
  const std::optional<double> value = util::parse_double(text);
  if (!value) fail(at, "not a number: '" + std::string(text) + "'");
  return *value;
}

using RowParser = std::function<void(const ParsePosition&, Row)>;

/// Streams the data rows of `input` (CSV text or a stream of it) to
/// `parse_row` after checking its header row against `header`; CSV syntax
/// errors are re-anchored to `source_name`.
template <typename Input, std::size_t N>
void for_each_data_row(Input& input, std::string_view source_name,
                       const char* const (&header)[N],
                       const RowParser& parse_row) {
  bool seen_header = false;
  try {
    util::for_each_csv_record(input, [&](const util::CsvRecordView& record) {
      const ParsePosition at{source_name, record.line};
      if (!seen_header) {
        check_header(at, record.fields, header);
        seen_header = true;
        return;
      }
      parse_row(at, record.fields);
    });
  } catch (const util::CsvSyntaxError& error) {
    throw std::invalid_argument(std::string(source_name) + ": " + error.what());
  }
  if (!seen_header) fail({source_name, 1}, "missing header");
}

/// Upper bound on the data rows of `text`: its line breaks (every line but
/// the header's ends one data row at most). memchr skips the bytes between
/// breaks several at a time: over a 20 MB file of 100,000 flows it counts
/// in about 2 ms, where a byte-wise std::count took 5-8 ms.
std::size_t max_data_rows(std::string_view text) {
  std::size_t breaks = 0;
  const char* const end = text.data() + text.size();
  for (const char* at = text.data(); at != end; ++at, ++breaks) {
    at = static_cast<const char*>(std::memchr(at, '\n', end - at));
    if (at == nullptr) break;
  }
  return breaks;
}

/// The same bound over a whole stream, counted kCsvChunkBytes at a time;
/// leaves `in` rewound to its start. Throws std::runtime_error on a read
/// or seek failure.
std::size_t max_data_rows(std::istream& in, const std::filesystem::path& path) {
  std::vector<char> chunk(util::kCsvChunkBytes);
  std::size_t breaks = 0;
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    breaks += max_data_rows(
        {chunk.data(), static_cast<std::size_t>(in.gcount())});
  }
  if (!in.bad()) {
    in.clear();  // the count ended at end of file
    in.seekg(0);
  }
  if (!in) throw std::runtime_error("trace io: cannot read " + path.string());
  return breaks;
}

std::ifstream open_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("trace io: cannot open " + path.string());
  }
  return in;
}

/// Parses flows from `input` (CSV text or a stream of it), validating each
/// against `net`, with room reserved for `rows` of them.
template <typename Input>
std::vector<traffic::TrafficFlow> parse_flows(const graph::RoadNetwork& net,
                                              Input& input,
                                              std::string_view source_name,
                                              std::size_t rows) {
  std::vector<traffic::TrafficFlow> flows;
  flows.reserve(rows);
  const auto parse_row = [&](const ParsePosition& at, Row row) {
    if (row.size() != 6) fail(at, "ragged row");
    traffic::TrafficFlow flow;
    flow.origin = parse_u32(at, row[0]);
    flow.destination = parse_u32(at, row[1]);
    flow.daily_vehicles = parse_double(at, row[2]);
    flow.passengers_per_vehicle = parse_double(at, row[3]);
    flow.alpha = parse_double(at, row[4]);
    parse_path(at, row[5], flow.path);
    try {
      traffic::validate_flow(net, flow);
    } catch (const std::invalid_argument& error) {
      // validate_flow knows nothing about files; re-anchor its message to
      // the offending row.
      fail(at, error.what());
    }
    flows.push_back(std::move(flow));
  };
  for_each_data_row(input, source_name, kFlowHeader, parse_row);
  return flows;
}

template <std::size_t N>
void write_header(util::CsvWriter& writer, const char* const (&header)[N]) {
  for (const char* name : header) writer.field(name);
  writer.end_row();
}

/// The one flow writer behind flows_to_csv and write_flows_csv.
void write_flows(std::ostream& out,
                 std::span<const traffic::TrafficFlow> flows) {
  util::CsvWriter writer(out);
  write_header(writer, kFlowHeader);
  for (const traffic::TrafficFlow& flow : flows) {
    writer.field(flow.origin).field(flow.destination);
    writer.field(flow.daily_vehicles, 6)
        .field(flow.passengers_per_vehicle, 6)
        .field(flow.alpha, 9);
    writer.field(flow.path, '|').end_row();
  }
}

}  // namespace

std::string flows_to_csv(std::span<const traffic::TrafficFlow> flows) {
  std::ostringstream out;
  write_flows(out, flows);
  return std::move(out).str();
}

std::vector<traffic::TrafficFlow> flows_from_csv(const graph::RoadNetwork& net,
                                                 std::string_view text,
                                                 std::string_view source_name) {
  return parse_flows(net, text, source_name, max_data_rows(text));
}

void write_flows_csv(const std::filesystem::path& path,
                     std::span<const traffic::TrafficFlow> flows) {
  util::write_text_file("write_flows_csv", path,
                        [&](std::ostream& out) { write_flows(out, flows); });
}

std::vector<traffic::TrafficFlow> read_flows_csv(
    const graph::RoadNetwork& net, const std::filesystem::path& path) {
  std::ifstream in = open_file(path);
  const std::size_t rows = max_data_rows(in, path);
  return parse_flows(net, in, path.string(), rows);
}

}  // namespace rap::trace
