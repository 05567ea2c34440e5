// Invariant auditor for PlacementState — the self-checking half of the
// verification subsystem (DESIGN.md §9).
//
// audit_state() recomputes a PlacementState's bookkeeping from scratch and
// reports every violated invariant:
//
//   (A1) value  == Σ_f contribution[f]                  (within tolerance)
//   (A2) best_detour[f] == min detour over placed RAPs  (exact)
//   (A3) contribution[f] == customers(f, best_detour[f]) (exact; requires a
//        non-increasing utility — the paper's Theorem 1 world)
//   (A4) contribution[f] == replay of the documented add() semantics over
//        the placement in insertion order (exact; holds for ANY utility,
//        including the fuzzer's adversarial non-monotone family, where the
//        guarded running max is order-dependent and (A3) legitimately fails)
//   (A5) the placement holds distinct, valid node ids
//
// Always-on use: the RAP_AUDIT CMake option compiles a hook call into
// PlacementState::add(); ScopedAuditor installs an audit as that hook so
// every placement algorithm in the process is machine-checked after every
// mutation. Each audit bumps the ambient telemetry counter
// "audit.states_checked" (and "audit.violations" on failure) plus
// process-wide atomics for telemetry-free callers.
//
// Concurrency: this subsystem holds no mutex — its shared state is the hook
// pointer and two monotonic counters, all lock-free atomics (hook install /
// uninstall is acquire/release publication; see DESIGN.md §15 on why that
// pattern sits outside the compile-time lock analysis). ScopedAuditor
// additionally enforces single-installer semantics with an atomic flag.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/evaluator.h"

namespace rap::check {

/// Relative tolerance for (A1): value accumulates increments while the
/// audit sums final contributions, so the two may differ in the last ulps.
inline constexpr double kValueTolerance = 1e-9;

struct AuditOptions {
  /// The paper's utilities are non-increasing, making contribution ==
  /// customers(best_detour) (A3). Adversarial non-monotone utilities break
  /// that equality by design; set false to audit only the always-valid
  /// invariants (A1, A2, A4, A5).
  bool monotone_utility = true;
};

struct AuditResult {
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

/// Audits `state` against the invariants above. Pure check: no throw, no
/// telemetry — callers decide what a violation means.
[[nodiscard]] AuditResult audit_state(const core::PlacementState& state,
                                      const AuditOptions& options = {});

/// Number of audit_state calls made through the installed hook (ScopedAuditor)
/// since process start or the last reset. Process-wide, thread-safe.
[[nodiscard]] std::uint64_t hook_audits_run() noexcept;
[[nodiscard]] std::uint64_t hook_violations_seen() noexcept;
void reset_hook_counters() noexcept;

/// RAII installer of the audit hook: while alive, every
/// PlacementState::add() in a RAP_AUDIT build is followed by audit_state()
/// and a violation throws std::logic_error naming the failed invariants.
/// In a regular build (core::kAuditCompiledIn == false) construction
/// succeeds but the hook never fires — callers that require enforcement
/// should check core::kAuditCompiledIn. Only one auditor may be alive at a
/// time (nesting throws std::logic_error); the previous hook is restored on
/// destruction.
class ScopedAuditor {
 public:
  explicit ScopedAuditor(AuditOptions options = {});
  ~ScopedAuditor();
  ScopedAuditor(const ScopedAuditor&) = delete;
  ScopedAuditor& operator=(const ScopedAuditor&) = delete;

 private:
  core::PlacementAuditHook previous_;
};

}  // namespace rap::check
