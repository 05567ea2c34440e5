// Crash-safe on-disk scenario store: memory-mapped segments keyed by
// scenario content.
//
// Building a ServeScenario is the expensive part of serving a load request
// — city generation or CSV parsing, map matching, the shop's two
// Dijkstras. The store persists what generation and matching produce, so
// a restarted server REHYDRATES its LRU cache from disk instead of
// regenerating: the road network (positions + edges), the flow set (paths
// included — no map matching), the shop, the range and the utility name.
// Nothing derived is stored: rehydration calls derive_scenario, as a build
// does, which runs the shop's two Dijkstras and builds the O(total path
// nodes) coverage table — so placements on a rehydrated scenario are
// bitwise identical to placements on a freshly built one
// (tests/serve/store_test.cpp holds this), and no stored value can make
// them disagree.
//
// Segment format (version 5, tools/rap_serve --store-dir):
//   <dir>/<%016x key>.rseg
//   SegmentHeader (96 bytes: magic "RAPSEG1\n", format version, key,
//   payload byte count, ContentHash checksum, then the scalar scenario fields
//   — counts, range, shop, string lengths) followed by a packed payload:
//     positions   num_nodes x { f64 x, f64 y }
//     edges       num_edges x { u32 from, u32 to, f64 length }
//     flows       per flow: u32 origin, u32 destination, f64 vehicles,
//                 f64 passengers_per_vehicle, f64 alpha, u64 path_len,
//                 path_len x u32 path nodes
//     strings     summary, utility name (raw bytes)
// The checksum covers the scalar fields after it and the payload; the
// magic, version, key and byte count before it are each checked on their
// own, so no stored byte goes unverified.
// The content key IS the index: the directory of *.rseg files is the
// content-keyed lookup structure, and the filename must match the header
// key. Writes are crash-safe by construction — serialize to <name>.tmp,
// fsync, rename over the final name, fsync the directory — so a segment is
// either fully present and checksum-valid or invisible; torn writes are
// detected on load (magic/version/size/checksum) and counted as corrupt,
// never crashed on. Loads mmap the segment read-only and parse straight
// out of the mapping.
//
// Versioning: bump kStoreFormatVersion on any layout change; loaders
// reject other versions (counted corrupt), so a downgraded server treats
// new-format segments as absent and rebuilds — never misreads. load()
// deletes every segment it rejects, torn or of another version, so the
// rebuild's put() persists the key afresh. Version 2 dropped version 1's
// detour-engine name string (always "dijkstra"); version 3 extended the
// checksum, which covered only the payload, over the scalar header fields;
// version 4 dropped the shop's d'/d'' arrays and the byte estimate, which
// rehydration now derives; version 5 moved the checksum and the content
// key from byte-serial FNV-1a to ContentHash (src/serve/scenario_cache.h),
// so a v4 segment is filed under a key no spec hashes to any more. An
// older segment is counted corrupt once, deleted, rebuilt and re-persisted.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/serve/scenario_cache.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace rap::serve {

/// Current segment layout version (header field; see file comment).
inline constexpr std::uint64_t kStoreFormatVersion = 5;

/// The persistent segment store. Thread-safe: transports and the stdio loop
/// may put/load concurrently (one internal mutex; segment IO is quick
/// relative to scenario builds).
class ScenarioStore {
 public:
  struct Stats {
    std::uint64_t persisted = 0;   ///< segments written by put()
    std::uint64_t rehydrated = 0;  ///< scenarios rebuilt from segments
    std::uint64_t corrupt = 0;     ///< segments rejected by validation
    std::uint64_t io_errors = 0;   ///< write/rename/read failures
  };

  /// Opens (and creates, if needed) the store directory. Throws
  /// std::runtime_error when the directory cannot be created.
  explicit ScenarioStore(std::string directory);

  /// Persists one built scenario under its content key. Returns true when a
  /// segment was written; false when the key is already stored or IO failed
  /// (see stats()).
  bool put(const ServeScenario& scenario) RAP_EXCLUDES(mutex_);

  /// Rehydrates one scenario by content key. Returns nullptr when the key
  /// is absent or the segment fails validation (counted corrupt and
  /// deleted).
  [[nodiscard]] std::shared_ptr<const ServeScenario> load(std::uint64_t key)
      RAP_EXCLUDES(mutex_);

  /// Content keys of every segment on disk, sorted ascending — the
  /// deterministic rehydration order.
  [[nodiscard]] std::vector<std::uint64_t> keys() const;

  /// Rehydrates every segment into `cache` in sorted key order (the cache's
  /// own LRU budget applies). Returns the number of scenarios rehydrated.
  std::size_t rehydrate_into(ScenarioCache& cache);

  [[nodiscard]] Stats stats() const RAP_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t segment_count() const;
  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }

 private:
  [[nodiscard]] std::string segment_path(std::uint64_t key) const;

  std::string directory_;
  // Guards the counters AND serializes put()'s serialize-check-write-rename
  // sequence (two racing put()s for one key must not both pass the exists
  // check). load()/keys() read the filesystem lock-free: the atomic rename
  // makes a segment either fully visible or absent.
  mutable util::Mutex mutex_;
  Stats stats_ RAP_GUARDED_BY(mutex_);
};

}  // namespace rap::serve
