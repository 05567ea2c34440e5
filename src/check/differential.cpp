#include "src/check/differential.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "src/check/audit.h"
#include "src/check/oracle.h"
#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/core/exhaustive.h"
#include "src/core/greedy.h"
#include "src/core/lazy_greedy.h"
#include "src/graph/dijkstra.h"  // graph::kUnreachable
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace rap::check {
namespace {

/// Random placements per scenario for evaluate-vs-oracle checks.
constexpr std::size_t kRandomPlacements = 4;
/// Skip the oracle's plain-enumeration exhaustive cross-check when
/// sum_{j<=k} C(n, j) exceeds this (the oracle re-evaluates every leaf from
/// scratch; this bounds fuzz wall-clock, not correctness).
constexpr std::size_t kOracleExhaustiveBudget = 150'000;
/// Only instances with k at most this run exhaustive/ratio checks.
constexpr std::size_t kExhaustiveKLimit = 4;
/// Relative tolerance for value comparisons that sum in different orders.
constexpr double kTolerance = 1e-9;

/// Pins the ambient thread count for one leg of a serial-vs-parallel check,
/// restoring the previous config on scope exit.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t threads)
      : previous_(util::parallel_config()) {
    util::set_parallel_config({threads});
  }
  ~ScopedThreads() { util::set_parallel_config(previous_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  util::ParallelConfig previous_;
};

bool close(double a, double b, double tol) {
  return std::abs(a - b) <=
         tol * std::max({1.0, std::abs(a), std::abs(b)});
}

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string fmt_nodes(const core::Placement& nodes) {
  std::string out = "[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i != 0) out += " ";
    out += std::to_string(nodes[i]);
  }
  return out + "]";
}

std::string fmt_result(const core::PlacementResult& r) {
  return fmt_nodes(r.nodes) + " value " + fmt(r.customers);
}

/// sum_{j<=k} C(n, j), saturating well past any budget we would compare to.
double subset_count(std::size_t n, std::size_t k) {
  double total = 0.0;
  double binom = 1.0;  // C(n, 0)
  for (std::size_t j = 0; j <= k; ++j) {
    total += binom;
    if (total > 1e18) return total;
    binom = binom * static_cast<double>(n - j) / static_cast<double>(j + 1);
  }
  return total;
}

class Checker {
 public:
  explicit Checker(DiffReport& report) : report_(report) {}

  void expect(bool ok, const char* check, const std::string& detail) {
    ++report_.checks_run;
    if (!ok) report_.failures.push_back({check, detail});
  }

  void expect_bitwise_equal(const core::PlacementResult& a,
                            const core::PlacementResult& b,
                            const char* check) {
    expect(a.nodes == b.nodes && a.customers == b.customers, check,
           fmt_result(a) + " vs " + fmt_result(b));
  }

  void expect_close(double a, double b, const char* check) {
    expect(close(a, b, kTolerance), check, fmt(a) + " vs " + fmt(b));
  }

 private:
  DiffReport& report_;
};

/// Independent re-implementation of Algorithm 2's step rule on top of the
/// oracle's covered-detour bookkeeping — shares no code with
/// PlacementState. Selection mirrors the production scan exactly: ascending
/// ids, strictly-better score wins (so ties go to the lowest id), candidate
/// (i) wins exact ties with candidate (ii), stop on non-positive gain.
core::PlacementResult reference_composite(const core::CoverageModel& model,
                                          std::size_t k) {
  const std::size_t n = model.num_nodes();
  std::vector<bool> placed_mask(n, false);
  core::Placement placed;
  std::vector<double> covered(model.num_flows(), graph::kUnreachable);

  const auto covered_customers = [&](traffic::FlowIndex f) {
    return std::isinf(covered[f]) ? 0.0 : model.customers(f, covered[f]);
  };
  const auto cover_score = [&](graph::NodeId v) {
    double gain = 0.0;
    for (const traffic::NodeIncidence& inc : model.reach_at(v)) {
      if (covered_customers(inc.flow) > 0.0) continue;
      gain += model.customers(inc.flow, inc.detour);
    }
    return gain;
  };
  const auto improve_score = [&](graph::NodeId v) {
    double gain = 0.0;
    for (const traffic::NodeIncidence& inc : model.reach_at(v)) {
      const double current = covered_customers(inc.flow);
      if (current <= 0.0) continue;
      if (inc.detour >= covered[inc.flow]) continue;
      gain += model.customers(inc.flow, inc.detour) - current;
    }
    return gain;
  };
  const auto best_by = [&](const auto& score_of) {
    graph::NodeId best = graph::kInvalidNode;
    double best_score = -1.0;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (placed_mask[v]) continue;
      const double score = score_of(v);
      if (score > best_score) {
        best_score = score;
        best = v;
      }
    }
    return std::pair{best, best_score};
  };

  for (std::size_t step = 0; step < k && placed.size() < n; ++step) {
    const auto [cover_node, cover_gain] = best_by(cover_score);
    const auto [improve_node, improve_gain] = best_by(improve_score);
    const auto [node, gain] = improve_gain > cover_gain
                                  ? std::pair{improve_node, improve_gain}
                                  : std::pair{cover_node, cover_gain};
    if (node == graph::kInvalidNode || gain <= 0.0) break;
    placed_mask[node] = true;
    placed.push_back(node);
    for (const traffic::NodeIncidence& inc : model.reach_at(node)) {
      if (inc.detour < covered[inc.flow]) covered[inc.flow] = inc.detour;
    }
  }
  return {placed, oracle_evaluate(model, placed)};
}

}  // namespace

DiffReport run_differential_checks(const Scenario& scenario,
                                   const DiffOptions& options) {
  DiffReport report;
  report.seed = scenario.seed;
  Checker check(report);

  const core::CoverageModel& model = *scenario.problem;
  const std::size_t n = model.num_nodes();
  const std::size_t k = scenario.k;
  const bool monotone = is_monotone(scenario.utility_kind);
  // In RAP_AUDIT builds, every PlacementState::add() issued by any
  // algorithm below is additionally machine-checked; a violation throws out
  // of the algorithm under test. No-op (but still installable) otherwise.
  const ScopedAuditor auditor({.monotone_utility = monotone});
  const core::GreedyOptions pad_cov{.stop_when_no_gain = false};
  const core::CompositeGreedyOptions pad_marg{.stop_when_no_gain = false};

  // --- Serial leg: every eager algorithm under a single thread. ---
  core::PlacementResult cov, naive, comp, naive_pad, clamp_pad;
  {
    const ScopedThreads serial(1);
    cov = core::greedy_coverage_placement(model, k);
    naive = core::naive_marginal_greedy_placement(model, k);
    comp = core::composite_greedy_placement(model, k);
    naive_pad = core::naive_marginal_greedy_placement(model, k, pad_marg);
    // k-clamp contract: an over-budget k clamps to n instead of throwing,
    // so padding places every node.
    clamp_pad = core::greedy_coverage_placement(model, n + 3, pad_cov);
  }
  check.expect(clamp_pad.nodes.size() == n, "k_clamp_pads_to_n",
               "placed " + std::to_string(clamp_pad.nodes.size()) + " of " +
                   std::to_string(n));

  // --- Parallel leg: bit-identical for any thread count (all families). ---
  {
    const ScopedThreads parallel(options.parallel_threads);
    check.expect_bitwise_equal(cov, core::greedy_coverage_placement(model, k),
                               "serial_vs_parallel_coverage");
    check.expect_bitwise_equal(
        naive, core::naive_marginal_greedy_placement(model, k),
        "serial_vs_parallel_naive_marginal");
    check.expect_bitwise_equal(comp,
                               core::composite_greedy_placement(model, k),
                               "serial_vs_parallel_composite");
  }

  // --- Reported value replays exactly (all families): the incremental
  // value of the selection loop equals a fresh evaluate_placement of the
  // returned nodes, which performs the same add() sequence. ---
  check.expect(core::evaluate_placement(model, cov.nodes) == cov.customers,
               "coverage_value_replays", fmt_result(cov));
  check.expect(core::evaluate_placement(model, naive.nodes) == naive.customers,
               "naive_value_replays", fmt_result(naive));
  check.expect(core::evaluate_placement(model, comp.nodes) == comp.customers,
               "composite_value_replays", fmt_result(comp));

  // --- Lazy vs eager (CELF needs submodularity: monotone families only). ---
  if (monotone) {
    check.expect_bitwise_equal(
        naive, core::lazy_marginal_greedy_placement(model, k),
        "lazy_vs_eager_naive_marginal");
    check.expect_bitwise_equal(
        naive_pad,
        core::lazy_marginal_greedy_placement(model, k, nullptr, pad_marg),
        "lazy_vs_eager_naive_padded");
    check.expect_bitwise_equal(
        core::naive_marginal_greedy_placement(model, n + 3, pad_marg),
        core::lazy_marginal_greedy_placement(model, n + 3, nullptr, pad_marg),
        "lazy_vs_eager_clamped");
  }

  // --- Composite greedy vs the oracle-based Algorithm 2 reference. The
  // reference's scores are term-for-term the same sums, so placements match
  // exactly; values come from different bookkeeping, hence tolerance. ---
  if (monotone) {
    const core::PlacementResult ref = reference_composite(model, k);
    check.expect(comp.nodes == ref.nodes, "composite_vs_reference_nodes",
                 fmt_result(comp) + " vs " + fmt_result(ref));
    check.expect_close(comp.customers, ref.customers,
                       "composite_vs_reference_value");
  }

  // --- evaluate_placement vs the brute-force oracle. ---
  if (monotone) {
    check.expect_close(cov.customers, oracle_evaluate(model, cov.nodes),
                       "evaluate_vs_oracle_coverage");
    check.expect_close(naive.customers, oracle_evaluate(model, naive.nodes),
                       "evaluate_vs_oracle_naive");
    util::Rng rng = util::Rng(scenario.seed).fork(0x0ddc0ffee);
    for (std::size_t trial = 0; trial < kRandomPlacements; ++trial) {
      const std::size_t size =
          1 + static_cast<std::size_t>(
                  rng.next_below(std::min<std::uint64_t>(n, 8)));
      core::Placement nodes;
      for (const std::size_t i :
           rng.sample_without_replacement(n, size)) {
        nodes.push_back(static_cast<graph::NodeId>(i));
      }
      check.expect_close(core::evaluate_placement(model, nodes),
                         oracle_evaluate(model, nodes),
                         "evaluate_vs_oracle_random");
    }
  }

  // --- Best single RAP: greedy's first pick vs evaluating every singleton.
  // Works for every family (on an empty state the evaluator's gain equals
  // the singleton value). Near-ties may resolve to different nodes because
  // the two sides sum in different orders, so the values must agree; the
  // ids must agree unless the values tie within tolerance. ---
  {
    const OracleBest single = oracle_best_single(model);
    core::PlacementResult naive1;
    {
      const ScopedThreads serial(1);
      naive1 = core::naive_marginal_greedy_placement(model, 1);
    }
    if (single.node == graph::kInvalidNode) {
      check.expect(naive1.nodes.empty(), "best_single_empty",
                   fmt_result(naive1));
    } else {
      check.expect_close(naive1.customers, single.customers, "best_single_value");
      const graph::NodeId picked =
          naive1.nodes.empty() ? graph::kInvalidNode : naive1.nodes.front();
      const graph::NodeId single_id[] = {picked};
      check.expect(picked == single.node ||
                       (picked != graph::kInvalidNode &&
                        close(oracle_evaluate(model, single_id),
                              single.customers, kTolerance)),
                   "best_single_node",
                   std::to_string(picked) + " vs " +
                       std::to_string(single.node) + " value " +
                       fmt(single.customers));
    }
  }

  // --- Gain decomposition and the invariant audit on the final state. ---
  {
    core::PlacementState state(model);
    for (const graph::NodeId node : naive.nodes) state.add(node);
    const AuditResult audit =
        audit_state(state, {.monotone_utility = monotone});
    std::string violations;
    for (const std::string& v : audit.violations) violations += v + "; ";
    check.expect(audit.ok(), "final_state_audit", violations);

    util::Rng rng = util::Rng(scenario.seed).fork(0xdec0de);
    for (std::size_t trial = 0; trial < 4; ++trial) {
      const auto v = static_cast<graph::NodeId>(rng.next_below(n));
      if (state.contains(v)) continue;
      const double gain = state.gain_if_added(v);
      const double split =
          state.uncovered_gain(v) + state.improvement_gain(v);
      if (monotone) {
        check.expect_close(gain, split, "gain_decomposition");
        check.expect_close(gain, oracle_gain(model, state.placement(), v),
                           "gain_vs_oracle");
        check.expect_close(
            state.uncovered_gain(v),
            oracle_uncovered_gain(model, state.placement(), v),
            "uncovered_gain_vs_oracle");
      } else {
        // The adversarial family can make improvement negative; the guarded
        // gain never counts a losing swap, so it dominates the split.
        check.expect(gain + kTolerance >= split,
                     "gain_dominates_decomposition",
                     fmt(gain) + " vs " + fmt(split));
      }
      core::PlacementState added = state;
      added.add(v);
      check.expect_close(added.value() - state.value(), gain,
                         "add_delta_matches_gain");
      const AuditResult added_audit =
          audit_state(added, {.monotone_utility = monotone});
      check.expect(added_audit.ok(), "probe_state_audit",
                   added_audit.ok() ? "" : added_audit.violations.front());
    }
  }

  // --- Exhaustive optimum: Algorithm 3's k <= 4 path vs the oracle's plain
  // enumeration, plus the proven approximation ratios. ---
  if (monotone && k <= kExhaustiveKLimit) {
    const core::PlacementResult opt = core::exhaustive_optimal_placement(model, k);
    const double tol_eps = kTolerance * (1.0 + std::abs(opt.customers));
    check.expect(core::evaluate_placement(model, opt.nodes) == opt.customers,
                 "exhaustive_value_replays", fmt_result(opt));
    if (subset_count(n, k) <= static_cast<double>(kOracleExhaustiveBudget)) {
      const core::PlacementResult oracle_opt = oracle_exhaustive(model, k);
      check.expect_close(opt.customers, oracle_opt.customers,
                         "exhaustive_vs_oracle");
    }
    // Optimality: no greedy result may beat the optimum.
    for (const core::PlacementResult* r : {&cov, &naive, &comp}) {
      check.expect(r->customers <= opt.customers + tol_eps,
                   "optimum_dominates", fmt_result(*r) + " vs opt " +
                                            fmt_result(opt));
    }
    // Ratios. The naive marginal greedy is the standard greedy on the
    // monotone submodular objective: 1 - 1/e. Composite: 1 - 1/sqrt(e)
    // (paper Theorem 3). Coverage greedy carries 1 - 1/e only under the
    // threshold utility, where coverage equals the objective.
    const double ratio_1e = 1.0 - 1.0 / std::exp(1.0);
    const double ratio_sqrt = 1.0 - 1.0 / std::sqrt(std::exp(1.0));
    check.expect(naive.customers >= ratio_1e * opt.customers - tol_eps,
                 "naive_ratio_1_minus_1_over_e",
                 fmt(naive.customers) + " vs opt " + fmt(opt.customers));
    check.expect(comp.customers >= ratio_sqrt * opt.customers - tol_eps,
                 "composite_ratio_1_minus_1_over_sqrt_e",
                 fmt(comp.customers) + " vs opt " + fmt(opt.customers));
    if (scenario.utility_kind == FuzzUtility::kThreshold) {
      check.expect(cov.customers >= ratio_1e * opt.customers - tol_eps,
                   "coverage_ratio_threshold",
                   fmt(cov.customers) + " vs opt " + fmt(opt.customers));
    }
  }

  return report;
}

DiffReport fuzz_one(std::uint64_t seed, const DiffOptions& options) {
  const std::unique_ptr<Scenario> scenario = generate_scenario(seed);
  DiffReport report = run_differential_checks(*scenario, options);
  if (!report.ok()) report.reproducer_json = scenario_to_json(*scenario);
  return report;
}

}  // namespace rap::check
