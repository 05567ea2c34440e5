// Deterministic parallel execution engine.
//
// A fixed-size ThreadPool drives `parallel_for` / `parallel_reduce` over
// *static* chunk partitions: chunk boundaries depend only on the index range
// and the grain, never on the worker count or on runtime timing. Reductions
// combine per-chunk results in ascending chunk order on the calling thread.
// Together those two rules are the determinism contract every parallel call
// site in librap relies on:
//
//   the result of a parallel region is bit-identical for any thread count,
//   including 1, because the same chunks are evaluated and their results are
//   combined in the same order.
//
// Argmax-style reductions additionally break score ties towards the lowest
// node id (see core/parallel_scan.h), which reproduces the serial ascending
// scan exactly. Telemetry-recording chunk bodies follow the runner's
// pattern: one private obs::Telemetry per chunk, merged in chunk order after
// the join (src/obs/telemetry.h documents why workers never share a sink).
//
// Thread count selection: call sites pass an explicit count or 0 to inherit
// the ambient ParallelConfig (default: RAP_THREADS env var when set, else
// std::thread::hardware_concurrency). Nested parallel regions — a chunk body
// that itself calls parallel_for — run inline on the worker, so the engine
// never oversubscribes and never deadlocks on its own pool.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace rap::util {

/// How many threads parallel regions may use. `threads == 0` defers to the
/// machine (RAP_THREADS env var, else hardware_concurrency). Thread count
/// never affects results — only wall-clock — so this is purely a resource
/// knob.
struct ParallelConfig {
  std::size_t threads = 0;

  /// The resolved thread count (>= 1).
  [[nodiscard]] std::size_t effective() const noexcept;
};

/// The process-wide ambient config used when call sites pass `threads = 0`.
[[nodiscard]] ParallelConfig parallel_config() noexcept;
void set_parallel_config(ParallelConfig config) noexcept;

/// One static chunk of a parallel loop: indices [first, last) plus the
/// chunk's position in the partition (for order-deterministic reductions).
struct ChunkRange {
  std::size_t first = 0;
  std::size_t last = 0;
  std::size_t index = 0;
};

/// Number of chunks a range splits into; depends only on (first, last,
/// grain), never on the thread count. A zero grain counts as 1.
[[nodiscard]] constexpr std::size_t chunk_count(std::size_t first,
                                                std::size_t last,
                                                std::size_t grain) noexcept {
  if (last <= first) return 0;
  const std::size_t g = grain == 0 ? 1 : grain;
  return (last - first + g - 1) / g;
}

/// Fixed-size worker pool. Workers sleep on a condition variable between
/// jobs; the pool is cheap to keep around for the process lifetime (see
/// shared()).
class ThreadPool {
 public:
  /// Spawns `workers` threads (0 is allowed: every run_chunks call then
  /// executes inline on the caller).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  /// Runs `body(chunk)` for every static chunk of [first, last) with the
  /// given grain, using at most `max_threads` concurrent executors (the
  /// caller participates; at most max_threads - 1 pool workers join).
  /// Blocks until every chunk has finished.
  ///
  /// Guarantees:
  ///  * chunk boundaries and indices are those of chunk_count() — identical
  ///    for any max_threads;
  ///  * with max_threads <= 1, from inside a pool worker (nested
  ///    parallelism), or on a pool with no workers, all chunks run inline on
  ///    the calling thread in ascending order;
  ///  * if chunk bodies throw, every chunk still runs and the exception from
  ///    the lowest-indexed throwing chunk is rethrown (deterministic), except
  ///    inline execution which stops at the first throw like a plain loop.
  void run_chunks(std::size_t first, std::size_t last, std::size_t grain,
                  std::size_t max_threads,
                  const std::function<void(const ChunkRange&)>& body)
      RAP_EXCLUDES(mutex_);

  /// The process-wide pool used by parallel_for / parallel_reduce. Sized
  /// max(3, hardware_concurrency - 1) so differential tests exercise real
  /// cross-thread execution even on small machines; idle workers just sleep.
  [[nodiscard]] static ThreadPool& shared();

  /// True on a thread currently executing pool work. Nested parallel calls
  /// check this and run inline.
  [[nodiscard]] static bool on_worker_thread() noexcept;

 private:
  struct Job;

  void worker_loop() RAP_EXCLUDES(mutex_);

  // All mutable pool state behind one mutex; workers block on work_ready_.
  // Queue entries reference jobs directly so run_chunks can retract its
  // unclaimed helper slots on completion: when it returns, no worker holds a
  // reference to the job, so the job — including any captured exception — is
  // destroyed on the calling thread.
  mutable Mutex mutex_;
  CondVar work_ready_;
  std::vector<std::shared_ptr<Job>> pending_ RAP_GUARDED_BY(mutex_);
  bool stopping_ RAP_GUARDED_BY(mutex_) = false;
  // Written only by the constructor, joined only by the destructor; never
  // touched while workers run, so it needs no guard.
  std::vector<std::thread> workers_;
};

/// Chunked loop on the shared pool. `threads == 0` resolves through the
/// ambient ParallelConfig.
void parallel_for(std::size_t first, std::size_t last, std::size_t grain,
                  const std::function<void(const ChunkRange&)>& body,
                  std::size_t threads = 0);

/// Deterministic map/reduce: `map_chunk(chunk) -> T` runs per static chunk
/// (possibly concurrently); `combine(acc, next) -> T` folds the per-chunk
/// results in ascending chunk order on the calling thread, so the reduction
/// tree — and therefore every floating-point rounding and tie-break — is
/// independent of the thread count. Returns T{} for an empty range.
template <typename T, typename MapFn, typename CombineFn>
[[nodiscard]] T parallel_reduce(std::size_t first, std::size_t last,
                                std::size_t grain, MapFn&& map_chunk,
                                CombineFn&& combine, std::size_t threads = 0) {
  const std::size_t chunks = chunk_count(first, last, grain);
  if (chunks == 0) return T{};
  std::vector<T> partial(chunks);
  parallel_for(
      first, last, grain,
      [&](const ChunkRange& chunk) { partial[chunk.index] = map_chunk(chunk); },
      threads);
  T acc = std::move(partial[0]);
  for (std::size_t i = 1; i < chunks; ++i) {
    acc = combine(std::move(acc), std::move(partial[i]));
  }
  return acc;
}

}  // namespace rap::util
