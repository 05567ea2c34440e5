#include "src/serve/scenario_cache.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/graph/io.h"
#include "src/obs/events.h"
#include "src/obs/telemetry.h"
#include "src/trace/city_preset.h"
#include "src/trace/classify.h"
#include "src/trace/io.h"
#include "src/util/rng.h"

namespace rap::serve {
namespace {

std::string cache_key_hex(std::uint64_t key) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(key));
  return buffer;
}

// xxHash64's odd multipliers; ContentHash's round and fold are its shapes.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime3 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kPrime4 = 0x27d4eb2f165667c5ULL;

std::uint64_t load_word(const char* bytes) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof word);
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// One lane step; a bijection of `word` for a fixed lane.
std::uint64_t lane_round(std::uint64_t lane, std::uint64_t word) noexcept {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

/// Folds one more value into the digest; a bijection of `value` for a fixed
/// `hash`, so changing any one lane or tail word changes the digest.
std::uint64_t fold(std::uint64_t hash, std::uint64_t value) noexcept {
  return (hash ^ lane_round(0, value)) * kPrime1 + kPrime3;
}

/// Runs `stripes` 32-byte stripes through the lanes. The lanes live in
/// locals for the loop, so the four multiply chains run side by side.
void mix_stripes(std::uint64_t (&lanes)[4], const char* bytes,
                 std::size_t stripes) noexcept {
  std::uint64_t a = lanes[0];
  std::uint64_t b = lanes[1];
  std::uint64_t c = lanes[2];
  std::uint64_t d = lanes[3];
  for (; stripes > 0; --stripes, bytes += 32) {
    a = lane_round(a, load_word(bytes));
    b = lane_round(b, load_word(bytes + 8));
    c = lane_round(c, load_word(bytes + 16));
    d = lane_round(d, load_word(bytes + 24));
  }
  lanes[0] = a;
  lanes[1] = b;
  lanes[2] = c;
  lanes[3] = d;
}

traffic::UtilityKind utility_kind_or_throw(const std::string& name) {
  if (name == "threshold") return traffic::UtilityKind::kThreshold;
  if (name == "linear") return traffic::UtilityKind::kLinear;
  if (name == "sqrt") return traffic::UtilityKind::kSqrt;
  throw std::invalid_argument("unknown utility '" + name +
                              "' (threshold|linear|sqrt)");
}

trace::LocationClass shop_class_or_throw(const std::string& name) {
  if (name == "center") return trace::LocationClass::kCityCenter;
  if (name == "city") return trace::LocationClass::kCity;
  if (name == "suburb") return trace::LocationClass::kSuburb;
  throw std::invalid_argument("unknown shop class '" + name +
                              "' (center|city|suburb)");
}

/// Full-precision double rendering for the canonical key string.
std::string key_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The canonical parameter prefix hashed into every key. File/inline
/// content is folded in separately by scenario_key().
std::string key_prefix(const ScenarioSpec& spec) {
  std::string prefix = "rap.serve.scenario.v2|utility=";
  prefix += spec.utility;
  prefix += "|d=";
  prefix += key_double(spec.range);
  prefix += "|shop=";
  if (spec.shop != graph::kInvalidNode) {
    prefix += std::to_string(spec.shop);
  } else {
    prefix += "class:" + spec.shop_class;
  }
  prefix += "|seed=" + std::to_string(spec.seed);
  return prefix;
}

/// A generated city: the preset rap_cli also builds, its day streamed one
/// journey at a time (DESIGN.md §11), so a load never holds the whole
/// day's GPS samples.
void generate_city_inputs(const ScenarioSpec& spec, ServeScenario& out) {
  util::Rng rng(spec.seed);
  trace::CityPreset city = trace::make_city(spec.city, spec.journeys, rng);
  out.flows = trace::stream_flows(city, rng);
  out.net = std::move(city.net);
}

graph::NodeId pick_shop(const ScenarioSpec& spec, const graph::RoadNetwork& net,
                        const std::vector<traffic::TrafficFlow>& flows) {
  if (spec.shop != graph::kInvalidNode) {
    net.check_node(spec.shop);
    return spec.shop;
  }
  const trace::LocationClass cls = shop_class_or_throw(spec.shop_class);
  const auto classes = trace::classify_intersections(net, flows);
  const auto pool = trace::nodes_in_class(classes, cls);
  if (pool.empty()) {
    throw std::runtime_error("no intersection in shop class '" +
                             spec.shop_class + "'");
  }
  // Seed-deterministic pick matching rap_cli's shop selection stream.
  util::Rng rng(spec.seed ^ 0x5eed);
  return pool[rng.next_below(pool.size())];
}

/// Approximate resident footprint for LRU accounting (DESIGN.md §13): the
/// network CSR, the base flows with their paths, the shop's two trees, the
/// problem's per-flow (population, alpha) pair, and its coverage table at
/// one 16-byte entry per live (flow, node) pair (detour within the
/// utility's range) plus one CSR offset per node.
std::size_t estimate_bytes(const ServeScenario& scenario) {
  const std::size_t n = scenario.net.num_nodes();
  std::size_t bytes = sizeof(ServeScenario);
  bytes += n * 48 + scenario.net.num_edges() * 24;
  for (const traffic::TrafficFlow& flow : scenario.flows) {
    bytes += sizeof(traffic::TrafficFlow) +
             flow.path.size() * sizeof(graph::NodeId);
  }
  bytes += n * 2 * sizeof(double);                      // d', d''
  bytes += scenario.flows.size() * 2 * sizeof(double);  // weights
  bytes += scenario.problem->num_entries() *
           sizeof(traffic::NodeIncidence);
  bytes += n * sizeof(std::uint32_t);  // CSR offsets
  return bytes;
}

}  // namespace

ContentHash& ContentHash::update(std::string_view bytes) {
  if (bytes.empty()) return *this;
  length_ += bytes.size();
  const char* next = bytes.data();
  std::size_t left = bytes.size();
  if (pending_size_ > 0) {
    const std::size_t take = std::min(left, sizeof pending_ - pending_size_);
    std::memcpy(pending_ + pending_size_, next, take);
    pending_size_ += take;
    next += take;
    left -= take;
    if (pending_size_ < sizeof pending_) return *this;
    mix_stripes(lanes_, pending_, 1);
    pending_size_ = 0;
  }
  mix_stripes(lanes_, next, left / sizeof pending_);
  pending_size_ = left % sizeof pending_;
  if (pending_size_ > 0) {
    std::memcpy(pending_, next + (left - pending_size_), pending_size_);
  }
  return *this;
}

ContentHash& ContentHash::update_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("serve: cannot read '" + path + "'");
  }
  std::vector<char> chunk(64 * 1024);
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    update({chunk.data(), static_cast<std::size_t>(in.gcount())});
  }
  if (in.bad()) {
    throw std::runtime_error("serve: cannot read '" + path + "'");
  }
  return *this;
}

std::uint64_t ContentHash::digest() const noexcept {
  std::uint64_t hash = kPrime4;
  for (const std::uint64_t lane : lanes_) hash = fold(hash, lane);
  char tail[sizeof pending_] = {};
  std::memcpy(tail, pending_, pending_size_);
  for (std::size_t at = 0; at < pending_size_; at += 8) {
    hash = fold(hash, load_word(tail + at));
  }
  hash ^= length_;
  // SplitMix64's finalizer.
  hash = (hash ^ (hash >> 30)) * 0xbf58476d1ce4e5b9ULL;
  hash = (hash ^ (hash >> 27)) * 0x94d049bb133111ebULL;
  return hash ^ (hash >> 31);
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void validate_spec(const ScenarioSpec& spec) {
  const int sources = static_cast<int>(!spec.city.empty()) +
                      static_cast<int>(!spec.network_path.empty()) +
                      static_cast<int>(!spec.network_csv.empty());
  if (sources != 1) {
    throw std::invalid_argument(
        "scenario spec needs exactly one input source: city, network_path, or "
        "network_csv");
  }
  if (!spec.city.empty() && spec.city != "dublin" && spec.city != "seattle" &&
      spec.city != "grid") {
    throw std::invalid_argument("unknown city '" + spec.city +
                                "' (dublin|seattle|grid)");
  }
  if (!spec.network_path.empty() && spec.flows_path.empty()) {
    throw std::invalid_argument("network_path requires flows_path");
  }
  if (!spec.network_csv.empty() && spec.flows_csv.empty()) {
    throw std::invalid_argument("network_csv requires flows_csv");
  }
  if (!(spec.range > 0.0)) {
    throw std::invalid_argument("utility range d must be > 0");
  }
  utility_kind_or_throw(spec.utility);
  if (spec.shop == graph::kInvalidNode) shop_class_or_throw(spec.shop_class);
}

std::uint64_t scenario_key(const ScenarioSpec& spec) {
  validate_spec(spec);
  ContentHash hash;
  hash.update(key_prefix(spec));
  if (!spec.city.empty()) {
    hash.update("|city=" + spec.city +
                "|journeys=" + std::to_string(spec.journeys));
  } else if (!spec.network_path.empty()) {
    hash.update("|net-file:").update_file(spec.network_path);
    hash.update("|flows-file:").update_file(spec.flows_path);
  } else {
    hash.update("|net-inline:").update(spec.network_csv);
    hash.update("|flows-inline:").update(spec.flows_csv);
  }
  obs::add_counter("serve.key_bytes", hash.length());
  return hash.digest();
}

void derive_scenario(ServeScenario& scenario) {
  scenario.detours =
      std::make_shared<traffic::DetourCalculator>(scenario.net, scenario.shop);
  scenario.problem = std::make_unique<core::PlacementProblem>(
      scenario.net, scenario.flows, scenario.shop, *scenario.utility,
      std::make_unique<SharedDetours>(scenario.detours));
  scenario.bytes = estimate_bytes(scenario);
}

std::shared_ptr<const ServeScenario> build_scenario(const ScenarioSpec& spec,
                                                    std::uint64_t key) {
  validate_spec(spec);
  const obs::Span span("serve.scenario_build");
  auto scenario = std::make_shared<ServeScenario>();
  scenario->key = key;
  std::string source;
  if (!spec.city.empty()) {
    generate_city_inputs(spec, *scenario);
    source = spec.city + " seed " + std::to_string(spec.seed);
  } else if (!spec.network_path.empty()) {
    scenario->net = graph::read_network_csv(spec.network_path);
    scenario->flows = trace::read_flows_csv(scenario->net, spec.flows_path);
    source = spec.network_path;
  } else {
    scenario->net = graph::network_from_csv(spec.network_csv, "<network_csv>");
    scenario->flows =
        trace::flows_from_csv(scenario->net, spec.flows_csv, "<flows_csv>");
    source = "inline csv";
  }
  scenario->utility =
      traffic::make_utility(utility_kind_or_throw(spec.utility), spec.range);
  scenario->shop = pick_shop(spec, scenario->net, scenario->flows);
  derive_scenario(*scenario);
  scenario->summary = source + ": " +
                      std::to_string(scenario->net.num_nodes()) +
                      " intersections, " + std::to_string(scenario->flows.size()) +
                      " flows, utility " + scenario->utility->name();
  return scenario;
}

std::shared_ptr<const ServeScenario> ScenarioCache::lookup(std::uint64_t key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    obs::add_counter("serve.cache.misses");
    obs::record_instant("serve.cache.miss", "key", cache_key_hex(key));
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  obs::add_counter("serve.cache.hits");
  obs::record_instant("serve.cache.hit", "key", cache_key_hex(key));
  return it->second->scenario;
}

void ScenarioCache::insert(std::shared_ptr<const ServeScenario> scenario) {
  if (max_bytes_ == 0 || scenario == nullptr) return;
  const std::uint64_t key = scenario->key;
  const std::size_t inserted_bytes = scenario->bytes;
  if (const auto it = index_.find(key); it != index_.end()) {
    stats_.bytes -= it->second->scenario->bytes;
    stats_.bytes += scenario->bytes;
    it->second->scenario = std::move(scenario);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    stats_.bytes += scenario->bytes;
    lru_.push_front(Entry{key, std::move(scenario)});
    index_.emplace(key, lru_.begin());
  }
  obs::record_instant("serve.cache.insert", "key", cache_key_hex(key));
  if (log_ != nullptr) {
    log_->log(obs::LogLevel::kInfo, "cache.insert",
              {obs::log_str("key", cache_key_hex(key)),
               obs::log_num("bytes", static_cast<double>(inserted_bytes))});
  }
  // Evict from the cold end; the entry just touched is at the front and is
  // never evicted by its own insertion.
  while (stats_.bytes > max_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.scenario->bytes;
    const std::string victim_key = cache_key_hex(victim.key);
    const std::size_t victim_bytes = victim.scenario->bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
    obs::add_counter("serve.cache.evictions");
    obs::record_instant("serve.cache.evict", "key", victim_key);
    if (log_ != nullptr) {
      log_->log(obs::LogLevel::kInfo, "cache.evict",
                {obs::log_str("key", victim_key),
                 obs::log_num("bytes", static_cast<double>(victim_bytes))});
    }
  }
  stats_.entries = lru_.size();
  obs::set_gauge("serve.cache.bytes", static_cast<double>(stats_.bytes));
  obs::set_gauge("serve.cache.entries", static_cast<double>(stats_.entries));
}

}  // namespace rap::serve
