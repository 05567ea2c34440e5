// Request scheduler: per-client session slots for the concurrent server.
//
// The stdio loop of PR 5 had exactly one session and one big lock. The
// scheduler generalizes that to N clients: every transport connection (and
// the stdio loop itself, as kStdioClient) owns a ClientSlot holding its
// Session plus a per-slot mutex. Requests of ONE client are serialized in
// arrival order — sessions are stateful, and the rap.serve.v1 contract
// promises responses in request order per connection — while requests of
// DISTINCT clients run concurrently: the slot lock is all a placement
// holds, so two clients can price, delta and place at the same time.
//
// What makes that safe is the read-mostly scenario discipline
// (src/serve/scenario_cache.h): built scenarios are pinned behind
// shared_ptr<const ServeScenario> and never mutated, sessions copy-on-write
// their private flow state, and every shared engine a session touches
// (the immutable RoadNetwork, the DetourCalculator trees) is
// read-only after construction. Cross-client shared state —
// the scenario cache, the server's stats — is the Server's problem and is
// guarded by its own short-lived locks, never held across a placement.
//
// The locking contracts themselves are stated as Thread Safety Analysis
// annotations (GUARDED_BY / EXCLUDES below) and machine-checked under the
// `thread-safety` preset; comments describe intent only. The one exception
// is ClientLock, whose ownership-transferring guard the analysis cannot
// follow — see its class comment. (DESIGN.md §15.)
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/serve/session.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace rap::serve {

/// Identifies one client (= one transport connection, or the stdio loop).
using ClientId = std::uint64_t;

/// The stdio loop's pre-registered client. Server::handle_line(line)
/// forwards here, so single-client callers never see client ids.
inline constexpr ClientId kStdioClient = 0;

class SessionScheduler {
 public:
  /// Constructs with kStdioClient already open.
  SessionScheduler();

  /// Registers a new client slot (no session until its first load).
  [[nodiscard]] ClientId open_client() RAP_EXCLUDES(mutex_);

  /// Drops a client and its session. Unknown ids are ignored; a concurrent
  /// in-flight request on the slot finishes first (the slot is shared).
  void close_client(ClientId id) RAP_EXCLUDES(mutex_);

  /// Open client count (kStdioClient included).
  [[nodiscard]] std::size_t client_count() const RAP_EXCLUDES(mutex_);

  /// Exclusive access to one client's session slot for the lifetime of the
  /// guard. Obtained at dispatch time and held across the whole request, so
  /// one client's requests are processed serially in arrival order.
  ///
  /// This guard transfers lock ownership by value (lock_client returns it),
  /// which is the one locking pattern in the repo that Clang Thread Safety
  /// Analysis is structurally blind to — a scoped capability cannot move
  /// between objects — so its members carry per-function suppressions with
  /// justifications instead of ACQUIRE/RELEASE annotations. The invariant
  /// they stand in for: slot_->session is only ever touched while
  /// slot_->mutex is held, and a live (truthy) ClientLock holds it.
  class ClientLock {
   public:
    /// Ownership transfer: the moved-from guard forgets the slot (its
    /// shared_ptr is nulled), so exactly one live guard unlocks in ~ClientLock.
    ClientLock(ClientLock&& other) noexcept = default;
    ClientLock(const ClientLock&) = delete;
    ClientLock& operator=(const ClientLock&) = delete;
    ClientLock& operator=(ClientLock&&) = delete;

    // Releases the slot mutex the (possibly moved) constructor acquired —
    // invisible to the analysis, which never saw the acquire either.
    ~ClientLock() RAP_NO_THREAD_SAFETY_ANALYSIS {
      if (slot_ != nullptr) slot_->mutex.unlock();
    }

    /// False when the client id was never opened (or already closed).
    [[nodiscard]] explicit operator bool() const noexcept {
      return slot_ != nullptr;
    }
    /// The client's session; nullptr before its first successful load.
    // A truthy guard holds slot_->mutex by construction (see class comment).
    [[nodiscard]] Session* session() const noexcept
        RAP_NO_THREAD_SAFETY_ANALYSIS {
      return slot_ == nullptr ? nullptr : slot_->session.get();
    }
    // A truthy guard holds slot_->mutex by construction (see class comment).
    void set_session(std::unique_ptr<Session> session)
        RAP_NO_THREAD_SAFETY_ANALYSIS {
      slot_->session = std::move(session);
    }

   private:
    friend class SessionScheduler;
    struct Slot {
      util::Mutex mutex;
      std::unique_ptr<Session> session RAP_GUARDED_BY(mutex);
    };
    ClientLock() = default;
    // Acquires the slot mutex for the guard's lifetime; the matching release
    // lives in the destructor of whichever guard ends up owning the slot.
    explicit ClientLock(std::shared_ptr<Slot> slot)
        RAP_NO_THREAD_SAFETY_ANALYSIS : slot_(std::move(slot)) {
      slot_->mutex.lock();
    }

    std::shared_ptr<Slot> slot_;
  };

  /// Locks `id`'s slot (blocking behind any in-flight request of the same
  /// client). The returned lock is falsy for unknown ids.
  [[nodiscard]] ClientLock lock_client(ClientId id) RAP_EXCLUDES(mutex_);

 private:
  // Guards the registry only — never held across a request; per-request
  // serialization is the slot mutex inside ClientLock.
  mutable util::Mutex mutex_;
  std::unordered_map<ClientId, std::shared_ptr<ClientLock::Slot>> clients_
      RAP_GUARDED_BY(mutex_);
  ClientId next_id_ RAP_GUARDED_BY(mutex_) = kStdioClient + 1;
};

}  // namespace rap::serve
