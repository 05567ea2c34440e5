// Store-segment fuzzing: rap_fuzz --family=segment.
//
// One fuzz case persists a small seeded scenario (check/scenario.h) through
// a Server with a segment store (src/serve/store.h), then rewrites that
// segment with seed-derived mutations and restarts a Server on the store
// after each one:
//   * bit flips anywhere in the file;
//   * truncation at any length;
//   * header fields set to extreme values;
//   * "re-sealed" edits: header or payload fields set to hostile values
//     (bad node ids, NaN positions, lengths and volumes, non-walk paths,
//     string overruns) with the checksum recomputed, so the edit gets past
//     the checksum and reaches parse_segment's structural checks.
// Each mutated segment must either be counted corrupt and deleted, or
// rehydrate into a scenario whose load, place, place_batch and evaluate
// responses are well-formed rap.serve.v1 lines. A mutation that is not
// re-sealed must always be rejected. The report's digest covers every
// mutated segment and every response line, so equal digests at
// RAP_THREADS=1 and 4 show that the family does not depend on the thread
// count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>

namespace rap::fuzz {

struct SegmentFuzzReport {
  std::uint64_t seed = 0;
  bool ok = true;
  std::size_t mutations = 0;   ///< mutated segments tried
  std::size_t rejected = 0;    ///< counted corrupt and deleted
  std::size_t rehydrated = 0;  ///< loaded and served
  std::uint64_t digest = 0;    ///< FNV-1a over segments and responses
  std::string message;         ///< failure description (empty when ok)
};

/// Runs one seeded case in `store_dir` (created, and emptied first).
/// Deterministic: the same seed always writes the same segments.
[[nodiscard]] SegmentFuzzReport fuzz_segment_one(
    std::uint64_t seed, const std::filesystem::path& store_dir);

}  // namespace rap::fuzz
