#include "src/graph/io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/util/csv.h"
#include "src/util/strings.h"
#include "src/util/text_file.h"

namespace rap::graph {
namespace {

// Positional error context: every failure names the source (file name or
// "<string>") and the 1-based line of the row being parsed, so a malformed
// network file is diagnosable without bisecting it by hand.
struct ParsePosition {
  std::string_view source;
  std::size_t line = 0;
};

[[noreturn]] void fail(const ParsePosition& at, const std::string& message) {
  throw std::invalid_argument(std::string(at.source) + ":" +
                              std::to_string(at.line) + ": " + message);
}

double parse_double(const ParsePosition& at, std::string_view text) {
  const std::optional<double> value = util::parse_double(text);
  if (!value) fail(at, "not a number: '" + std::string(text) + "'");
  return *value;
}

NodeId parse_node(const ParsePosition& at, std::string_view text) {
  NodeId out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    fail(at, "not a node id: '" + std::string(text) + "'");
  }
  return out;
}

/// Parses a network from `input` (CSV text or a stream of it).
template <typename Input>
RoadNetwork parse_network(Input& input, std::string_view source_name) {
  NetworkBuilder net;
  const auto parse_row = [&](const util::CsvRecordView& record) {
    const std::span<const std::string_view> row = record.fields;
    const ParsePosition at{source_name, record.line};
    if (row.empty()) return;
    if (row[0] == "node") {
      if (row.size() != 3) fail(at, "node row needs x,y");
      const geo::Point position{parse_double(at, row[1]),
                                parse_double(at, row[2])};
      try {
        net.add_node(position);
      } catch (const std::invalid_argument& error) {
        fail(at, error.what());  // a non-finite coordinate
      }
    } else if (row[0] == "edge") {
      if (row.size() != 4) fail(at, "edge row needs from,to,length");
      const NodeId from = parse_node(at, row[1]);
      const NodeId to = parse_node(at, row[2]);
      if (from >= net.num_nodes() || to >= net.num_nodes()) {
        fail(at, "edge references an undeclared node");
      }
      const double length = parse_double(at, row[3]);
      try {
        net.add_edge(from, to, length);
      } catch (const std::invalid_argument& error) {
        // RoadNetwork rejects self-loops and non-positive/non-finite
        // lengths; re-anchor its message to the offending row.
        fail(at, error.what());
      }
    } else {
      fail(at, "unknown row kind '" + std::string(row[0]) + "'");
    }
  };
  try {
    util::for_each_csv_record(input, parse_row);
  } catch (const util::CsvSyntaxError& error) {
    throw std::invalid_argument(std::string(source_name) + ": " + error.what());
  }
  return std::move(net).build();
}

/// The one network writer behind both network_to_csv and write_network_csv.
void write_network(std::ostream& out, const RoadNetwork& net) {
  util::CsvWriter writer(out);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const geo::Point p = net.position(v);
    writer.field("node").field(p.x, 6).field(p.y, 6).end_row();
  }
  for (const Edge& e : net.edges()) {
    writer.field("edge").field(e.from).field(e.to).field(e.length, 6).end_row();
  }
}

}  // namespace

std::string network_to_csv(const RoadNetwork& net) {
  std::ostringstream out;
  write_network(out, net);
  return std::move(out).str();
}

RoadNetwork network_from_csv(std::string_view text,
                             std::string_view source_name) {
  return parse_network(text, source_name);
}

void write_network_csv(const std::filesystem::path& path,
                       const RoadNetwork& net) {
  util::write_text_file("write_network_csv", path,
                        [&](std::ostream& out) { write_network(out, net); });
}

RoadNetwork read_network_csv(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("read_network_csv: cannot open " + path.string());
  }
  return parse_network(in, path.string());
}

}  // namespace rap::graph
