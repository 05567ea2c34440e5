#include "tools/segment_fuzz.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/check/scenario.h"
#include "src/graph/io.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/trace/io.h"
#include "src/util/rng.h"

namespace rap::fuzz {
namespace {

using serve::JsonValue;

// The segment layout of src/serve/store.h: a fixed header of u64 fields
// (shop and reserved share the u32 pair at offset 72), then the payload.
constexpr std::size_t kHashOffset = 32;
constexpr std::size_t kNodesOffset = 40;
constexpr std::size_t kEdgesOffset = 48;
constexpr std::size_t kFlowsOffset = 56;
constexpr std::size_t kRangeOffset = 64;
constexpr std::size_t kShopOffset = 72;
constexpr std::size_t kSummaryOffset = 80;
constexpr std::size_t kUtilityOffset = 88;
constexpr std::size_t kHeaderBytes = 96;
constexpr std::size_t kFlowBytes = 40;  // a flow record before its path
constexpr std::size_t kMutationsPerCase = 24;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::array<double, 8> kHostileDoubles = {
    std::numeric_limits<double>::quiet_NaN(),
    kInf,
    -kInf,
    0.0,
    -0.0,
    -1.0,
    1e308,
    std::numeric_limits<double>::denorm_min()};

template <typename T>
T read_at(const std::string& bytes, std::size_t offset) {
  T value{};
  std::memcpy(&value, bytes.data() + offset, sizeof value);
  return value;
}

template <typename T>
void write_at(std::string& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
}

/// Where the records of one segment start (file offsets).
struct Layout {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::size_t positions = kHeaderBytes;
  std::size_t edge_records = 0;
  std::vector<std::size_t> flows;
};

Layout layout_of(const std::string& segment) {
  Layout at;
  at.nodes = read_at<std::uint64_t>(segment, kNodesOffset);
  at.edges = read_at<std::uint64_t>(segment, kEdgesOffset);
  at.edge_records = at.positions + 16 * at.nodes;
  std::size_t next = at.edge_records + 16 * at.edges;
  const auto flows = read_at<std::uint64_t>(segment, kFlowsOffset);
  for (std::uint64_t i = 0; i < flows; ++i) {
    at.flows.push_back(next);
    next += kFlowBytes + 4 * read_at<std::uint64_t>(segment, next + 32);
  }
  return at;
}

/// Recomputes the checksum as ScenarioStore writes it: the content hash of
/// the header fields after the checksum, continued over the payload.
void reseal(std::string& segment) {
  const std::string_view bytes(segment);
  write_at(segment, kHashOffset,
           serve::ContentHash()
               .update(bytes.substr(kHashOffset + 8,
                                    kHeaderBytes - kHashOffset - 8))
               .update(bytes.substr(kHeaderBytes))
               .digest());
}

struct Mutation {
  std::string bytes;
  bool resealed = false;
  std::string what;
};

class Mutator {
 public:
  Mutator(std::uint64_t seed, const std::string& original)
      : rng_(seed), original_(original), at_(layout_of(original)) {}

  Mutation next() {
    Mutation m{original_, false, ""};
    switch (pick(6)) {
      case 0: {
        const std::size_t flips = 1 + pick(4);
        for (std::size_t i = 0; i < flips; ++i) {
          const std::size_t bit = pick(m.bytes.size() * 8);
          m.bytes[bit / 8] = static_cast<char>(
              static_cast<unsigned char>(m.bytes[bit / 8]) ^ (1U << (bit % 8)));
        }
        m.what = "bit flip";
        return m;
      }
      case 1:
        m.bytes.resize(pick(m.bytes.size()));
        m.what = "truncation to " + std::to_string(m.bytes.size());
        return m;
      case 2: {
        const std::size_t offset = 8 + 8 * pick(11);
        write_at(m.bytes, offset,
                 hostile_u64(read_at<std::uint64_t>(m.bytes, offset)));
        m.what = "header field at " + std::to_string(offset);
        return m;
      }
      default:
        m.what = "re-sealed " + edit(m.bytes);
        reseal(m.bytes);
        m.resealed = true;
        return m;
    }
  }

 private:
  std::size_t pick(std::size_t count) {
    return static_cast<std::size_t>(rng_.next_below(count));
  }
  double hostile_double() {
    return kHostileDoubles[pick(kHostileDoubles.size())];
  }
  std::uint64_t hostile_u64(std::uint64_t value) {
    const std::array<std::uint64_t, 8> values = {
        0, 1, value - 1, value + 1, 0xffff'ffffULL, 0x1'0000'0000ULL,
        std::numeric_limits<std::uint64_t>::max() / 2,
        std::numeric_limits<std::uint64_t>::max()};
    return values[pick(values.size())];
  }
  /// A node id that is out of range, or (one time in three) a random valid
  /// one, which makes a path a non-walk or an edge a self-loop.
  std::uint32_t hostile_id() {
    const auto n = static_cast<std::uint32_t>(at_.nodes);
    const std::array<std::uint32_t, 6> ids = {
        n, n + 1, 0xffff'ffffU, 0x8000'0000U,
        static_cast<std::uint32_t>(pick(at_.nodes)),
        static_cast<std::uint32_t>(pick(at_.nodes))};
    return ids[pick(ids.size())];
  }

  /// Applies one structured edit to `bytes` (checksum not yet fixed) and
  /// names it.
  std::string edit(std::string& bytes) {
    const std::size_t flow = at_.flows[pick(at_.flows.size())];
    switch (pick(9)) {
      case 0: {
        const std::size_t offset = kNodesOffset + 8 * pick(7);
        if (offset == kRangeOffset) {
          write_at(bytes, offset, hostile_double());
        } else if (offset == kShopOffset) {
          write_at(bytes, offset, hostile_id());
        } else {
          write_at(bytes, offset,
                   hostile_u64(read_at<std::uint64_t>(bytes, offset)));
        }
        return "header field at " + std::to_string(offset);
      }
      case 1:
        write_at(bytes, at_.positions + 16 * pick(at_.nodes) + 8 * pick(2),
                 hostile_double());
        return "node position";
      case 2:
        write_at(bytes, at_.edge_records + 16 * pick(at_.edges) + 4 * pick(2),
                 hostile_id());
        return "edge endpoint";
      case 3:
        write_at(bytes, at_.edge_records + 16 * pick(at_.edges) + 8,
                 hostile_double());
        return "edge length";
      case 4:
        write_at(bytes, flow + 4 * pick(2), hostile_id());
        return "flow endpoint";
      case 5:
        write_at(bytes, flow + 8 + 8 * pick(3), hostile_double());
        return "flow volume";
      case 6: {
        const auto length = read_at<std::uint64_t>(bytes, flow + 32);
        write_at(bytes,
                 flow + kFlowBytes + 4 * pick(std::max<std::size_t>(length, 1)),
                 hostile_id());
        return "flow path node";
      }
      case 7:
        write_at(bytes, flow + 32,
                 hostile_u64(read_at<std::uint64_t>(bytes, flow + 32)));
        return "flow path length";
      default: {
        const std::size_t offset =
            pick(2) == 0 ? kSummaryOffset : kUtilityOffset;
        write_at(bytes, offset,
                 hostile_u64(read_at<std::uint64_t>(bytes, offset)));
        return "string length at " + std::to_string(offset);
      }
    }
  }

  util::Rng rng_;
  const std::string& original_;
  Layout at_;
};

std::string load_request(const check::Scenario& scenario) {
  static constexpr std::array<const char*, 3> kUtilities = {
      "threshold", "linear", "sqrt"};
  JsonValue::Object request;
  request.emplace("op", "load");
  request.emplace("network_csv", graph::network_to_csv(scenario.net));
  request.emplace("flows_csv", trace::flows_to_csv(scenario.flows));
  request.emplace("utility", kUtilities[scenario.seed % kUtilities.size()]);
  request.emplace("d", scenario.range);
  request.emplace("shop", static_cast<double>(scenario.shop));
  return serve::to_json(JsonValue(std::move(request)));
}

bool is_ok(const std::string& response) {
  return serve::parse_json(response).as_object().at("ok").as_bool();
}

/// Empty when `line` is a well-formed rap.serve.v1 response, else why not.
std::string malformed(const std::string& line) {
  try {
    const JsonValue response = serve::parse_json(line);
    const JsonValue::Object& object = response.as_object();
    if (object.at("schema").as_string() != serve::kServeSchema) {
      return "wrong schema";
    }
    if (object.at("ok").as_bool()) return "";
    const JsonValue::Object& error = object.at("error").as_object();
    (void)error.at("code").as_string();
    (void)error.at("message").as_string();
    return "";
  } catch (const std::exception& error) {
    return std::string("not a rap.serve.v1 response: ") + error.what();
  }
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

SegmentFuzzReport fuzz_segment_one(std::uint64_t seed,
                                   const std::filesystem::path& store_dir) {
  SegmentFuzzReport report;
  report.seed = seed;
  const auto fail = [&](std::string message) {
    report.ok = false;
    report.message = std::move(message);
    return report;
  };
  std::filesystem::remove_all(store_dir);
  serve::ServerOptions options;
  options.store_dir = store_dir.string();

  const std::unique_ptr<check::Scenario> scenario =
      check::generate_scenario(seed);
  const std::string load = load_request(*scenario);
  {
    serve::Server server(options);
    const std::string response = server.handle_line(load);
    if (!is_ok(response)) {
      return fail("the scenario did not load: " + response);
    }
  }
  std::filesystem::path segment;
  for (const auto& entry : std::filesystem::directory_iterator(store_dir)) {
    segment = entry.path();
  }
  const std::string original = read_file(segment);
  const Layout at = layout_of(original);
  const std::vector<std::string> requests = {
      load,
      R"({"op":"place","k":1})",
      R"({"op":"place","k":3})",
      R"({"op":"place_batch","ks":[1,2,4]})",
      R"({"op":"evaluate","nodes":[0,)" + std::to_string(scenario->shop) +
          "]}",
      R"({"op":"evaluate","nodes":[)" + std::to_string(at.nodes - 1) + "]}",
  };

  Mutator mutator(~seed, original);
  report.digest = serve::fnv1a64("");
  for (std::size_t i = 0; i < kMutationsPerCase; ++i) {
    const Mutation mutation = mutator.next();
    const std::string where =
        "mutation " + std::to_string(i) + " (" + mutation.what + ")";
    write_file(segment, mutation.bytes);
    report.digest = serve::fnv1a64(mutation.bytes, report.digest);
    ++report.mutations;
    serve::Server server(options);
    if (server.rehydrated_at_start() == 0) {
      if (server.store()->stats().corrupt != 1 ||
          std::filesystem::exists(segment)) {
        return fail(where + " was neither rehydrated nor counted corrupt "
                            "and deleted");
      }
      ++report.rejected;
      continue;
    }
    if (!mutation.resealed && mutation.bytes != original) {
      return fail(where + " was not re-sealed, yet it rehydrated");
    }
    ++report.rehydrated;
    for (const std::string& request : requests) {
      const std::string response = server.handle_line(request);
      report.digest = serve::fnv1a64(response, report.digest);
      const std::string why = malformed(response);
      if (!why.empty()) {
        return fail(where + ": " + request + " -> " + why + ": " + response);
      }
      if (&request == &requests.front() && !is_ok(response)) {
        return fail(where + " rehydrated, yet its load failed: " + response);
      }
    }
  }
  std::filesystem::remove_all(store_dir);
  return report;
}

}  // namespace rap::fuzz
