// Deterministic fuzz of every text parser in the library: random byte
// soup, random near-valid mutations, and truncated valid documents must
// never crash, hang, or corrupt state — only parse or throw.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/io.h"
#include "src/trace/io.h"
#include "src/util/csv.h"
#include "src/util/rng.h"
#include "tests/testing/builders.h"

namespace rap {
namespace {

std::string random_bytes(util::Rng& rng, std::size_t length) {
  // Printable-ish plus structural characters the parsers care about.
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789,\"\n\r.|-+eE ";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

template <typename Fn>
void expect_parse_or_throw(Fn&& parse) {
  try {
    parse();
  } catch (const std::invalid_argument&) {
    // fine: malformed input reported
  } catch (const std::out_of_range&) {
    // fine: e.g. numeric overflow routed through stod
  }
  // Anything else (crash, uncaught type) fails the test by terminating.
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, CsvParserNeverCrashes) {
  util::Rng rng(GetParam() * 71 + 5);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string soup = random_bytes(rng, rng.next_below(200));
    expect_parse_or_throw([&] {
      util::for_each_csv_record(soup, [](const util::CsvRecordView&) {});
    });
  }
}

TEST_P(ParserFuzz, NetworkParserNeverCrashes) {
  util::Rng rng(GetParam() * 73 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string soup =
        "node," + random_bytes(rng, rng.next_below(100));
    expect_parse_or_throw([&] { (void)graph::network_from_csv(soup); });
  }
}

TEST_P(ParserFuzz, FlowParserNeverCrashes) {
  util::Rng rng(GetParam() * 79 + 9);
  const auto net = testing::line_network(5);
  const std::string header =
      "origin,destination,daily_vehicles,passengers_per_vehicle,alpha,path\n";
  for (int trial = 0; trial < 50; ++trial) {
    const std::string soup = header + random_bytes(rng, rng.next_below(150));
    expect_parse_or_throw([&] { (void)trace::flows_from_csv(net, soup); });
  }
}

TEST_P(ParserFuzz, TruncatedValidDocumentsHandled) {
  // Take a valid serialised network and chop it at every prefix length:
  // each prefix must parse or throw, never crash.
  util::Rng rng(GetParam() * 83 + 11);
  const auto net = testing::random_network(3, 3, 2, rng);
  const std::string full = graph::network_to_csv(net);
  for (std::size_t cut = 0; cut <= full.size(); cut += 7) {
    expect_parse_or_throw(
        [&] { (void)graph::network_from_csv(full.substr(0, cut)); });
  }
}

TEST_P(ParserFuzz, MutatedValidDocumentsHandled) {
  // Flip single characters in a valid flow CSV.
  util::Rng rng(GetParam() * 89 + 13);
  const auto net = testing::line_network(5);
  std::vector<traffic::TrafficFlow> flows;
  flows.push_back(traffic::make_shortest_path_flow(net, 0, 4, 3.0));
  const std::string valid = trace::flows_to_csv(flows);
  for (int trial = 0; trial < 60; ++trial) {
    std::string mutated = valid;
    mutated[rng.next_below(mutated.size())] =
        static_cast<char>('0' + rng.next_below(80));
    expect_parse_or_throw(
        [&] { (void)trace::flows_from_csv(net, mutated); });
  }
}

// The std::istream overload of for_each_csv_record reads kCsvChunkBytes at a
// time, so a row, a quoted field, a "" escape or a \r\n pair can straddle a
// chunk boundary that the std::string_view overload never sees. Edits right
// around the first boundary must leave both overloads yielding the same
// (line, fields) rows, and the same error when the edit breaks the syntax.
struct CsvOutcome {
  std::vector<std::pair<std::size_t, std::vector<std::string>>> rows;
  std::string error;  ///< CsvSyntaxError::what(), empty when none
  bool operator==(const CsvOutcome&) const = default;
};

template <typename Parse>
CsvOutcome csv_outcome(Parse&& parse) {
  CsvOutcome out;
  try {
    parse([&](const util::CsvRecordView& row) {
      out.rows.emplace_back(
          row.line,
          std::vector<std::string>(row.fields.begin(), row.fields.end()));
    });
  } catch (const util::CsvSyntaxError& error) {
    out.error = error.what();
  }
  return out;
}

/// A valid CSV document larger than one chunk: plain, quoted, escaped and
/// multi-line fields, \n and \r\n line ends, with one long quoted field
/// spanning the first chunk boundary.
std::string chunk_spanning_document() {
  util::Rng rng(64);
  std::string doc = "id,name,note,value\n";
  const auto append_row = [&](std::size_t id) {
    doc += std::to_string(id) + ",";
    switch (rng.next_below(4)) {
      case 0: doc += "plain"; break;
      case 1: doc += "\"with, comma\""; break;
      case 2: doc += "\"say \"\"hi\"\"\""; break;
      default: doc += "\"two\nlines\""; break;
    }
    doc += ',';
    doc.append(rng.next_below(12), 'n');
    doc += ',';
    doc += std::to_string(rng.next_below(1000));
    doc += rng.next_below(3) == 0 ? "\r\n" : "\n";
  };
  std::size_t id = 0;
  while (doc.size() < util::kCsvChunkBytes - 40) append_row(id++);
  doc += std::to_string(id++) +
         ",\"spans, the \"\"chunk\"\"\r\nboundary, quoted\",x,1\r\n";
  while (doc.size() < util::kCsvChunkBytes + 4096) append_row(id++);
  return doc;
}

TEST(CsvChunkBoundary, ViewAndStreamReadersAgreeOnEdits) {
  const std::string valid = chunk_spanning_document();
  ASSERT_GT(valid.size(), util::kCsvChunkBytes);
  static constexpr std::string_view kBytes = "\",\n\rx";
  std::size_t cases = 0;
  std::size_t errors = 0;
  for (std::size_t at = util::kCsvChunkBytes - 24;
       at <= util::kCsvChunkBytes + 24; ++at) {
    std::vector<std::pair<std::string, std::string>> edits;  // (doc, what)
    for (const char c : kBytes) {
      std::string replaced = valid;
      replaced[at] = c;
      edits.emplace_back(std::move(replaced), "replace");
      std::string inserted = valid;
      inserted.insert(at, 1, c);
      edits.emplace_back(std::move(inserted), "insert");
    }
    std::string deleted = valid;
    deleted.erase(at, 1);
    edits.emplace_back(std::move(deleted), "delete");
    for (const auto& [edited, what] : edits) {
      const std::size_t cut = what == "delete" ? at : at + 1;
      for (const std::string& doc : {edited, edited.substr(0, cut)}) {
        const CsvOutcome from_view = csv_outcome([&](const auto& fn) {
          util::for_each_csv_record(std::string_view(doc), fn);
        });
        const CsvOutcome from_stream = csv_outcome([&](const auto& fn) {
          std::istringstream in(doc);
          util::for_each_csv_record(in, fn);
        });
        ASSERT_TRUE(from_view == from_stream)
            << what << " at " << at << ", " << doc.size() << " bytes";
        ++cases;
        if (!from_view.error.empty()) ++errors;
      }
    }
  }
  EXPECT_EQ(cases, 49u * 22u);
  EXPECT_GT(errors, 0u);  // some edits open a quote that never closes
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace rap
