#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>

namespace rap::util {
namespace {

thread_local bool tls_on_worker = false;

std::size_t hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

// RAP_THREADS overrides the hardware default once at startup — how CI runs
// the whole suite under a fixed thread count without touching every test.
std::size_t initial_ambient_threads() noexcept {
  const char* env = std::getenv("RAP_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return 0;
  return static_cast<std::size_t>(parsed);
}

std::atomic<std::size_t>& ambient_threads() noexcept {
  static std::atomic<std::size_t> value{initial_ambient_threads()};
  return value;
}

}  // namespace

std::size_t ParallelConfig::effective() const noexcept {
  return threads != 0 ? threads : hardware_threads();
}

ParallelConfig parallel_config() noexcept {
  return {ambient_threads().load(std::memory_order_relaxed)};
}

void set_parallel_config(ParallelConfig config) noexcept {
  ambient_threads().store(config.threads, std::memory_order_relaxed);
}

// One run_chunks invocation. Helper workers hold a shared_ptr only while
// draining; each releases its reference *before* signalling helper_done, and
// run_chunks retracts unclaimed queue entries and waits for in-flight
// helpers, so by the time it returns (or rethrows) the caller owns the sole
// reference — the job, and any exception captured in it, is destroyed on
// the calling thread. `body` has caller lifetime and is only dereferenced
// for chunks claimed before completion.
struct ThreadPool::Job {
  std::size_t first = 0;
  std::size_t last = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;
  const std::function<void(const ChunkRange&)>* body = nullptr;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining{0};
  Mutex done_mutex;  // guards error state + helpers, pairs with done_cv
  CondVar done_cv;
  std::exception_ptr error RAP_GUARDED_BY(done_mutex);
  std::size_t error_chunk RAP_GUARDED_BY(done_mutex) =
      std::numeric_limits<std::size_t>::max();
  // Enqueued-but-unfinished helper slots.
  std::size_t helpers RAP_GUARDED_BY(done_mutex) = 0;

  // Claims and runs chunks until none are left. Shared by the caller and
  // every helper worker; the atomic claim is the only scheduling decision,
  // so which thread runs a chunk can vary but the chunk set cannot.
  void drain() {
    for (;;) {
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= chunks) return;
      try {
        const std::size_t lo = first + index * grain;
        const std::size_t hi = std::min(last, lo + grain);
        (*body)({lo, hi, index});
      } catch (...) {
        const MutexLock lock(done_mutex);
        // Keep the lowest-indexed exception so which error surfaces does
        // not depend on thread timing.
        if (index < error_chunk) {
          error_chunk = index;
          error = std::current_exception();
        }
      }
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const MutexLock lock(done_mutex);
        done_cv.notify_all();
      }
    }
  }

  // Called by a worker after it has dropped its shared_ptr (the caller's
  // wait on helpers == 0 keeps `this` alive until then), and by run_chunks
  // for every queue entry it retracts.
  void release_helpers(std::size_t count) RAP_EXCLUDES(done_mutex) {
    const MutexLock lock(done_mutex);
    helpers -= count;
    if (helpers == 0) done_cv.notify_all();
  }
};

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  tls_on_worker = true;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      const MutexLock lock(mutex_);
      while (!stopping_ && pending_.empty()) work_ready_.wait(mutex_);
      if (pending_.empty()) return;  // stopping_
      job = std::move(pending_.back());
      pending_.pop_back();
    }
    Job* const raw = job.get();
    job->drain();
    // Release the reference before signalling: once the caller unblocks, the
    // worker must not own any part of the job (otherwise the job — and an
    // exception the caller just rethrew — could be destroyed on this thread,
    // racing with the caller's use of it).
    job.reset();
    raw->release_helpers(1);
  }
}

bool ThreadPool::on_worker_thread() noexcept { return tls_on_worker; }

void ThreadPool::run_chunks(std::size_t first, std::size_t last,
                            std::size_t grain, std::size_t max_threads,
                            const std::function<void(const ChunkRange&)>& body) {
  if (last < first) {
    throw std::invalid_argument("ThreadPool::run_chunks: last < first");
  }
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t chunks = chunk_count(first, last, g);
  if (chunks == 0) return;

  const std::size_t executors = std::min(std::max<std::size_t>(max_threads, 1),
                                         chunks);
  if (executors <= 1 || workers_.empty() || on_worker_thread()) {
    // Inline path — same chunk partition, ascending order, zero threading.
    for (std::size_t index = 0; index < chunks; ++index) {
      const std::size_t lo = first + index * g;
      const std::size_t hi = std::min(last, lo + g);
      body({lo, hi, index});
    }
    return;
  }

  auto job = std::make_shared<Job>();
  job->first = first;
  job->last = last;
  job->grain = g;
  job->chunks = chunks;
  job->body = &body;
  job->remaining.store(chunks, std::memory_order_relaxed);

  const std::size_t helpers = std::min(executors - 1, workers_.size());
  {
    // Nothing else can see the job yet, but helpers is guarded and the
    // analysis (correctly) has no notion of "not yet shared".
    const MutexLock lock(job->done_mutex);
    job->helpers = helpers;
  }
  {
    const MutexLock lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) {
      pending_.push_back(job);
    }
  }
  if (helpers == 1) {
    work_ready_.notify_one();
  } else {
    work_ready_.notify_all();
  }

  job->drain();  // the caller participates

  // Retract helper slots no worker claimed (all chunks may already be done),
  // so no queue entry keeps the job alive past this call.
  std::size_t retracted = 0;
  {
    const MutexLock lock(mutex_);
    const auto unclaimed = std::remove(pending_.begin(), pending_.end(), job);
    retracted = static_cast<std::size_t>(pending_.end() - unclaimed);
    pending_.erase(unclaimed, pending_.end());
  }
  if (retracted > 0) job->release_helpers(retracted);

  {
    const MutexLock lock(job->done_mutex);
    while (job->remaining.load(std::memory_order_acquire) != 0 ||
           job->helpers != 0) {
      job->done_cv.wait(job->done_mutex);
    }
    if (job->error) std::rethrow_exception(job->error);
  }
}

ThreadPool& ThreadPool::shared() {
  // At least 3 workers even on single-core machines, so `threads=4`
  // differential and TSan tests exercise genuine cross-thread execution
  // everywhere; sleeping workers cost nothing measurable.
  static ThreadPool pool(std::max<std::size_t>(3, hardware_threads() - 1));
  return pool;
}

void parallel_for(std::size_t first, std::size_t last, std::size_t grain,
                  const std::function<void(const ChunkRange&)>& body,
                  std::size_t threads) {
  const std::size_t resolved =
      threads != 0 ? threads : parallel_config().effective();
  ThreadPool::shared().run_chunks(first, last, grain, resolved, body);
}

}  // namespace rap::util
