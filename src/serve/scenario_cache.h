// Scenario loading + content-addressed caching for the placement service.
//
// A ServeScenario is a fully built, pinned problem instance: network, base
// flows, utility, shop, the shop's detour engine (two shop-rooted Dijkstra
// trees) and the base PlacementProblem. Building one is the expensive part
// of serving a `load` request — city generation or CSV parsing, map matching, the shop
// Dijkstras, the coverage table — so scenarios are cached behind a 64-bit
// content key and shared (shared_ptr) between the cache and any live
// sessions.
//
// Cache keying is by *content*, not by request shape (ContentHash, a
// word-at-a-time hash): file-based specs hash the bytes of the referenced
// files (editing a file in place is a cache miss, re-requesting an
// unchanged file is a hit); inline CSV specs hash the CSV text;
// generated-city specs hash the canonical parameter string (the generators
// are deterministic in their seed, so parameters ARE the content). Utility
// kind, range and shop selection are part of the key — they change the
// built model.
//
// Eviction is LRU by approximate resident bytes. The most recently inserted
// entry always survives, even when it alone exceeds the budget, so a session
// can always be served.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/problem.h"
#include "src/graph/road_network.h"
#include "src/obs/event_log.h"
#include "src/traffic/detour.h"
#include "src/traffic/flow.h"
#include "src/traffic/utility.h"

namespace rap::serve {

/// Detour source that forwards to a shared engine. The shop's
/// DetourCalculator depends only on the network and the shop node, so delta
/// rebuilds of the PlacementProblem (flows changed, network unchanged) can
/// share the scenario's calculator instead of re-running its two Dijkstras.
class SharedDetours final : public traffic::DetourSource {
 public:
  explicit SharedDetours(std::shared_ptr<const traffic::DetourSource> inner)
      : inner_(std::move(inner)) {}

 private:
  void price_path(const traffic::TrafficFlow& flow,
                  std::span<double> out) const override {
    inner_->detours_along_path(flow, out);
  }

  std::shared_ptr<const traffic::DetourSource> inner_;
};

/// What a `load` request asks for. Exactly one input source must be set:
/// a generated city (`city` non-empty), input files (`network_path`
/// non-empty), or inline CSV text (`network_csv` non-empty).
struct ScenarioSpec {
  // Generated city: kind in {dublin, seattle, grid}, mirroring rap_cli.
  std::string city;
  std::uint64_t seed = 1;
  std::size_t journeys = 100;

  // File inputs (graph::read_network_csv / trace::read_flows_csv formats).
  std::string network_path;
  std::string flows_path;

  // Inline CSV text (same formats, for file-less clients and tests).
  std::string network_csv;
  std::string flows_csv;

  // Driver model.
  std::string utility = "linear";  ///< threshold | linear | sqrt
  double range = 2'500.0;          ///< the utility's D, feet

  // Shop: explicit node id, or a class drawn deterministically from
  // (content, seed) when shop == kInvalidNode.
  graph::NodeId shop = graph::kInvalidNode;
  std::string shop_class = "city";  ///< center | city | suburb
};

/// A built, pinned scenario. Non-copyable/non-movable: `problem` holds
/// pointers into `net` and `utility`, and sessions hold pointers into all of
/// it via shared_ptr<const ServeScenario>.
struct ServeScenario {
  std::uint64_t key = 0;
  std::string summary;  ///< human-readable one-liner for responses/logs
  graph::RoadNetwork net;
  std::vector<traffic::TrafficFlow> flows;  ///< base flows (pre-delta)
  std::unique_ptr<traffic::UtilityFunction> utility;
  graph::NodeId shop = graph::kInvalidNode;
  /// The shop's two trees, shared into delta rebuilds via SharedDetours.
  std::shared_ptr<const traffic::DetourCalculator> detours;
  /// Problem over the base flows (also built on SharedDetours).
  std::unique_ptr<core::PlacementProblem> problem;
  std::size_t bytes = 0;  ///< approximate resident footprint (LRU accounting)

  ServeScenario() = default;
  ServeScenario(const ServeScenario&) = delete;
  ServeScenario& operator=(const ServeScenario&) = delete;
};

/// FNV-1a 64-bit over `bytes`, chained from `seed`. Byte-serial; kept for
/// digests that must not move (bench answers, fuzz reports).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes,
                                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/// The content hash behind scenario keys and store checksums. Four
/// independent 64-bit lanes each take one 8-byte little-endian word per
/// 32-byte stripe; digest() folds the lanes, the zero-padded sub-stripe
/// tail and the total length, then ends with a SplitMix64 avalanche. The
/// value depends only on the bytes fed, never on how update() calls split
/// them, so a file hashed in chunks equals its text hashed inline.
class ContentHash {
 public:
  ContentHash& update(std::string_view bytes);
  /// Feeds the bytes of the file at `path`, 64 KiB at a time (the file is
  /// never held whole). Throws std::runtime_error naming the file when it
  /// cannot be read.
  ContentHash& update_file(const std::string& path);

  /// Bytes fed so far.
  [[nodiscard]] std::uint64_t length() const noexcept { return length_; }
  [[nodiscard]] std::uint64_t digest() const noexcept;

 private:
  std::uint64_t lanes_[4] = {0x9e3779b97f4a7c15ULL, 0xbf58476d1ce4e5b9ULL,
                             0x94d049bb133111ebULL, 0xd6e8feb86659fd93ULL};
  char pending_[32] = {};
  std::size_t pending_size_ = 0;
  std::uint64_t length_ = 0;
};

/// The spec's content key: ContentHash over the canonical parameters
/// (tagged rap.serve.scenario.v2) and the input bytes. Reads the referenced
/// files when the spec is file-based (throws std::runtime_error naming the
/// file when unreadable). Two specs collide exactly when they would build
/// the same scenario. Counts the bytes hashed in serve.key_bytes.
[[nodiscard]] std::uint64_t scenario_key(const ScenarioSpec& spec);

/// Validates the spec shape (exactly one input source, known utility/city/
/// shop-class names); throws std::invalid_argument otherwise.
void validate_spec(const ScenarioSpec& spec);

/// Fills in the parts of a scenario that are computed from its inputs (net,
/// flows, utility, shop): the shop's two Dijkstra trees, the base problem
/// over SharedDetours, and the LRU byte estimate. build_scenario and store
/// rehydration both call it, so a rehydrated scenario holds no derived value
/// that a fresh build would not compute. Throws what the problem build
/// throws (bad shop, invalid flows).
void derive_scenario(ServeScenario& scenario);

/// Builds the full scenario for `spec` (expensive: generation/parsing,
/// matching, the shop's two Dijkstras, coverage table). `key` must be
/// scenario_key(spec).
[[nodiscard]] std::shared_ptr<const ServeScenario> build_scenario(
    const ScenarioSpec& spec, std::uint64_t key);

/// LRU-by-bytes scenario cache. Thread-compatible (the server serializes
/// access); lookup/insert are O(1) amortised.
class ScenarioCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;    ///< current resident total
    std::size_t entries = 0;  ///< current entry count
  };

  /// `max_bytes == 0` disables caching (every lookup misses, nothing is
  /// retained).
  explicit ScenarioCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  /// Returns the cached scenario and refreshes its recency, or nullptr
  /// (counted as hit/miss respectively).
  [[nodiscard]] std::shared_ptr<const ServeScenario> lookup(std::uint64_t key);

  /// Inserts `scenario` under its key and evicts least-recently-used entries
  /// until within budget (the new entry itself is never evicted here).
  /// Inserting an existing key refreshes the entry.
  void insert(std::shared_ptr<const ServeScenario> scenario);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t max_bytes() const noexcept { return max_bytes_; }

  /// Structured sink for insert/evict events (nullptr disables; the log
  /// must outlive the cache). Hits/misses stay on the metrics/recorder
  /// path only — they are too frequent for a per-line-flushed log.
  void set_event_log(obs::EventLog* log) noexcept { log_ = log; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const ServeScenario> scenario;
  };

  std::size_t max_bytes_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  Stats stats_;
  obs::EventLog* log_ = nullptr;
};

}  // namespace rap::serve
