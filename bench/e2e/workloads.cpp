#include "bench/e2e/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bench/e2e/answers.h"
#include "bench/e2e/stats.h"
#include "src/serve/session.h"
#include "src/util/rng.h"

namespace rap::bench::e2e {
namespace {

using serve::JsonValue;

constexpr int kSetupRepeats = 5;
constexpr std::size_t kCachedMb = 256;  // rap_serve's default cache budget
constexpr std::size_t kConnections = 4;
constexpr std::size_t kPlaceK = 8;
constexpr std::size_t kSteadyMaxK = 32;
constexpr std::size_t kEvaluateNodes = 8;
// serve_steady: the reference phase (p50, tail) at 1,000 req/s takes this
// share of the timed phase and the saturation phase (throughput) the rest.
// An untimed warm-up at the reference rate comes first; trace runs add an
// unloaded phase before the reference.
constexpr double kWarmupSeconds = 1.0;
constexpr double kReferenceRate = 1'000.0;
constexpr double kReferenceShare = 0.6;
constexpr double kUnloadedShare = 0.1;
constexpr std::uint64_t kSaturationWindowNs = 500'000'000;
constexpr std::uint64_t kGraceNs = 1'000'000'000;
// Ops per second the closed workloads complete on the reference host (4
// vCPUs, Release build); with serve_steady's reference rate they fix the
// percentile tail_ms reports.
constexpr double kMetroOpsPerSecond = 0.3;
constexpr double kChurnOpsPerSecond = 75.0;
constexpr double kCityOpsPerSecond = 6.5;
constexpr const char* kServeLog = "rap_serve.log";

double ms_between(std::uint64_t from_ns, std::uint64_t to_ns) {
  return to_ns > from_ns ? static_cast<double>(to_ns - from_ns) / 1e6 : 0.0;
}

std::uint64_t after_seconds(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

bool same_value(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

bool is_place(const std::string& line) {
  return line.starts_with(R"({"op":"place")");
}

double tail_percentile(double ops_per_second, double seconds) {
  return supported_percentile(
      std::min(static_cast<double>(kTailWindow), ops_per_second * seconds));
}

std::string socket_name(int n) {
  return "rap_serve." + std::to_string(::getpid()) + "." + std::to_string(n) +
         ".sock";
}

/// One server with its connections.
struct Rig {
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<Connection>> conns;

  void start(const RunConfig& config, int n, std::size_t cache_mb,
             std::size_t connections) {
    server = std::make_unique<ServerProcess>(config.serve_bin, socket_name(n),
                                             cache_mb, kServeLog);
    for (std::size_t c = 0; c < connections; ++c) {
      conns.push_back(std::make_unique<Connection>(server->socket()));
    }
  }
};

/// Sets up kSetupRepeats times from scratch, each time on a fresh server,
/// and keeps the last rig: setup_s is the median of these, so work moved
/// into set-up shows without one slow spawn deciding it.
template <typename Setup>
Rig timed_setups(SocketRun& out, Setup&& setup) {
  Rig rig;
  for (int n = 0; n < kSetupRepeats; ++n) {
    if (rig.server != nullptr) {
      rig.conns.clear();
      (void)rig.server->shutdown();
      rig = Rig{};
    }
    const std::uint64_t start = now_ns();
    setup(rig, n);
    out.setup_s.push_back(ms_between(start, now_ns()) / 1e3);
  }
  return rig;
}

/// Reads the server's peak RSS and stops it.
void finish(Rig& rig, SocketRun& out) {
  out.peak_rss_mb = rig.server->peak_rss_mb();
  rig.conns.clear();
  if (!rig.server->shutdown()) {
    out.problems.push_back("rap_serve did not shut down cleanly");
  }
}

void count(SocketRun& out, bool ok, const std::string& what) {
  ++out.attempted;
  if (ok) return;
  ++out.failed;
  if (out.problems.size() < 10) out.problems.push_back(what);
}

std::string expect_ok(Connection& conn, const std::string& line) {
  std::string response = conn.roundtrip(line);
  if (!ok_response(response)) {
    throw std::runtime_error("set-up request failed: " + line + " -> " +
                             response);
  }
  return response;
}

double closed_throughput(const std::vector<Completed>& ops,
                         std::uint64_t start_ns) {
  std::uint64_t last = start_ns;
  for (const Completed& op : ops) last = std::max(last, op.end_ns);
  const double seconds = ms_between(start_ns, last) / 1e3;
  return seconds > 0.0 ? static_cast<double>(ops.size()) / seconds : 0.0;
}

/// The untimed cross-check every closed workload ends with: a placement
/// evaluated by the server must give back its own objective.
void check_evaluates_to(Connection& conn, const PlaceAnswer& answer,
                        SocketRun& out) {
  const std::optional<double> value =
      number_field(conn.roundtrip(evaluate_line(answer.nodes)), "customers");
  if (!value || !same_value(*value, answer.customers)) {
    out.problems.push_back("evaluate of a placement disagrees with place");
  }
}

SocketRun run_metro(const RunConfig& config) {
  SocketRun out;
  out.tail_percentile = tail_percentile(kMetroOpsPerSecond, config.seconds);
  GridScenario scenario;
  Rig rig = timed_setups(out, [&](Rig& fresh, int n) {
    scenario = write_grid_scenario(metro_params(config.size), config.seed, ".",
                                   "metro");
    fresh.start(config, n, 0, 1);
  });
  const std::string load = load_line(scenario);
  const std::string place = place_line(kPlaceK);

  const std::uint64_t start = now_ns();
  std::vector<Completed> ops = run_closed(
      rig.conns,
      [&](std::size_t) { return std::vector<std::string>{load, place}; },
      after_seconds(config.seconds));
  out.throughput_per_s = closed_throughput(ops, start);

  std::optional<PlaceAnswer> first;
  for (const Completed& op : ops) {
    bool ok = !op.dropped && op.responses.size() == 2 &&
              number_field(op.responses[0], "nodes") ==
                  static_cast<double>(scenario.nodes) &&
              number_field(op.responses[0], "flows") ==
                  static_cast<double>(scenario.params.flows) &&
              number_field(op.responses[0], "shop") ==
                  static_cast<double>(scenario.shop);
    if (ok) {
      const std::optional<PlaceAnswer> answer = place_answer(op.responses[1]);
      ok = answer && plausible(*answer, kPlaceK, scenario.nodes);
      if (ok && !first) first = answer;
      // Every op solves the same scenario, so every answer is the first.
      ok = ok && *answer == *first;
    }
    count(out, ok, "metro_cold: wrong or failed load+place");
    if (ok) out.latencies_ms.push_back(ms_between(op.due_ns, op.end_ns));
  }
  if (first) {
    check_evaluates_to(*rig.conns[0], *first, out);
    out.digest = digest({*first});
  }
  finish(rig, out);
  out.priming.assign(1, {});
  out.ops = std::move(ops);
  return out;
}

SocketRun run_steady(const RunConfig& config) {
  SocketRun out;
  out.tail_percentile =
      tail_percentile(kReferenceRate * kReferenceShare, config.seconds);
  out.cache_mb = kCachedMb;
  GridScenario scenario;
  PlaceAnswer reference;  // place k=32: every k's answer is its prefix
  Rig rig = timed_setups(out, [&](Rig& fresh, int n) {
    scenario =
        write_grid_scenario(mid_params(config.size), config.seed, ".", "mid");
    fresh.start(config, n, kCachedMb, kConnections);
    for (const std::unique_ptr<Connection>& conn : fresh.conns) {
      (void)expect_ok(*conn, load_line(scenario));
      const std::optional<PlaceAnswer> answer =
          place_answer(conn->roundtrip(place_line(kSteadyMaxK)));
      if (!answer) throw std::runtime_error("serve_steady: priming failed");
      reference = *answer;
    }
  });
  out.priming.assign(kConnections,
                     {load_line(scenario), place_line(kSteadyMaxK)});

  // Evaluate answers are checked against the same scenario built here.
  const serve::Session truth(build_in_process(load_line(scenario)));

  util::Rng mix(util::SplitMix64(config.seed ^ 0x57eadULL).next());
  const auto next_request = [&]() {
    if (mix.next_below(2) == 0) {
      return place_line(1 + mix.next_below(kSteadyMaxK));
    }
    std::vector<graph::NodeId> nodes(kEvaluateNodes);
    for (graph::NodeId& node : nodes) {
      node = static_cast<graph::NodeId>(mix.next_below(scenario.nodes));
    }
    return evaluate_line(nodes);
  };
  const auto schedule = [&](double rate, double seconds, std::uint64_t stream) {
    const std::vector<double> offsets = poisson_schedule(
        rate, seconds, util::SplitMix64(config.seed ^ stream).next());
    std::vector<Scheduled> requests;
    requests.reserve(offsets.size());
    const std::uint64_t t0 = now_ns() + 2'000'000;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      requests.push_back({t0 + static_cast<std::uint64_t>(offsets[i] * 1e9),
                          i % kConnections, next_request()});
    }
    return requests;
  };

  std::map<std::size_t, double> customers_of_k;
  const auto correct = [&](const Completed& op) {
    if (op.dropped || op.responses.size() != 1) return false;
    const JsonValue request = serve::parse_json(op.requests[0]);
    if (serve::get_string(request.as_object(), "op", "") == "place") {
      const std::size_t k = budget_of(request.as_object());
      const std::optional<PlaceAnswer> answer = place_answer(op.responses[0]);
      if (!answer) return false;
      const auto prefix = static_cast<std::ptrdiff_t>(
          std::min(k, reference.nodes.size()));
      if (!std::equal(answer->nodes.begin(), answer->nodes.end(),
                      reference.nodes.begin(),
                      reference.nodes.begin() + prefix)) {
        return false;
      }
      return customers_of_k.emplace(k, answer->customers).first->second ==
             answer->customers;
    }
    const std::optional<double> value =
        number_field(op.responses[0], "customers");
    return value && *value == truth.evaluate(nodes_of(request.as_object()));
  };
  // Answered or dropped requests count here; the open loop counts the ones
  // left unanswered.
  const auto account = [&](const std::vector<Completed>& ops) {
    for (const Completed& op : ops) {
      if (op.responses.empty() && !op.dropped) continue;
      count(out, correct(op),
            "serve_steady: wrong or failed " + op.requests[0]);
    }
  };
  // Latencies of the answered requests, or of those of one kind.
  const auto answered_latencies = [](const std::vector<Completed>& ops,
                                     std::optional<bool> places = {}) {
    std::vector<double> latencies;
    for (const Completed& op : ops) {
      if (!op.responses.empty() &&
          (!places || is_place(op.requests[0]) == *places)) {
        latencies.push_back(ms_between(op.due_ns, op.end_ns));
      }
    }
    return latencies;
  };

  // Poisson arrivals at 1,000 req/s, every request checked and every one
  // left unanswered a failure.
  const auto reference_phase = [&](double seconds, std::uint64_t stream) {
    OpenRun run = run_open(
        rig.conns, schedule(kReferenceRate, seconds, stream), kGraceNs);
    account(run.ops);
    for (std::size_t i = 0; i < run.unanswered; ++i) {
      count(out, false, "serve_steady: unanswered at 1,000 req/s");
    }
    return run;
  };

  // Warm-up, untimed: the first second of load after the mostly idle
  // set-up runs visibly slower on a shared host.
  OpenRun warmup = reference_phase(kWarmupSeconds, 0x3a4e);

  // Unloaded (trace runs): one connection, closed loop — the latency with
  // nothing queued, the base of queue_wait.
  std::vector<Completed> unloaded;
  if (config.trace) {
    unloaded = run_closed(
        std::span(rig.conns).first(1),
        [&](std::size_t) { return std::vector<std::string>{next_request()}; },
        after_seconds(kUnloadedShare * config.seconds));
    account(unloaded);
  }

  // Reference: latency from each request's due time.
  OpenRun reference_run =
      reference_phase(kReferenceShare * config.seconds, 0x4ef);
  out.latencies_ms = answered_latencies(reference_run.ops);
  std::vector<double> late_ms;
  for (const Completed& op : reference_run.ops) {
    late_ms.push_back(ms_between(op.due_ns, op.sent_ns));
  }

  // Saturation: every connection closed-loop, as fast as answers come; the
  // median over half-second windows, so one stalled moment does not decide.
  const std::uint64_t saturation_start = now_ns();
  const std::vector<Completed> saturation = run_closed(
      rig.conns,
      [&](std::size_t) { return std::vector<std::string>{next_request()}; },
      after_seconds((1.0 - kReferenceShare) * config.seconds));
  account(saturation);
  std::vector<std::uint64_t> ends;
  for (const Completed& op : saturation) ends.push_back(op.end_ns);
  out.throughput_per_s =
      windowed_rate(ends, saturation_start, kSaturationWindowNs);

  finish(rig, out);

  // Half the requests are places and half evaluates, about ten times
  // cheaper: the median of all falls in the gap between the two kinds, so
  // each kind's own median is recorded too.
  for (const bool places : {true, false}) {
    out.diagnostics.push_back(
        {places ? "steady.place_p50_ms" : "steady.evaluate_p50_ms",
         percentile(answered_latencies(reference_run.ops, places), 50.0),
         "ms", true});
  }
  out.diagnostics.push_back(
      {"gen.late_p99_ms", percentile(late_ms, 99.0), "ms", true});
  out.diagnostics.push_back(
      {"steady.inflight_max",
       static_cast<double>(reference_run.inflight_max), "count", true});
  if (config.trace) {
    const double unloaded_p50 =
        percentile(answered_latencies(unloaded), 50.0);
    out.diagnostics.push_back(
        {"steady.unloaded_p50_ms", unloaded_p50, "ms", true});
    out.diagnostics.push_back(
        {"queue_wait.p50_ms",
         percentile(out.latencies_ms, 50.0) - unloaded_p50, "ms", true});
  }

  // The replay repeats the warm-up, unloaded and reference phases in order:
  // a session's warm start, and so each place answer, depends on the places
  // before it.
  for (std::vector<Completed>* phase :
       {&warmup.ops, &unloaded, &reference_run.ops}) {
    for (Completed& op : *phase) {
      if (!op.responses.empty()) out.ops.push_back(std::move(op));
    }
  }
  return out;
}

SocketRun run_churn(const RunConfig& config) {
  SocketRun out;
  out.tail_percentile = tail_percentile(kChurnOpsPerSecond, config.seconds);
  out.cache_mb = kCachedMb;
  GridScenario scenario;
  Rig rig = timed_setups(out, [&](Rig& fresh, int n) {
    scenario =
        write_grid_scenario(mid_params(config.size), config.seed, ".", "mid");
    fresh.start(config, n, kCachedMb, kConnections);
    for (const std::unique_ptr<Connection>& conn : fresh.conns) {
      (void)expect_ok(*conn, load_line(scenario));
      (void)expect_ok(*conn, place_line(kPlaceK));
    }
  });
  out.priming.assign(kConnections, {load_line(scenario), place_line(kPlaceK)});

  std::vector<DeltaStream> streams;
  for (std::size_t c = 0; c < kConnections; ++c) {
    streams.emplace_back(config.seed, c, scenario.nodes,
                         scenario.params.flows);
  }
  std::vector<std::vector<std::size_t>> expected_flows(kConnections);
  const std::uint64_t start = now_ns();
  std::vector<Completed> ops = run_closed(
      rig.conns,
      [&](std::size_t c) {
        std::vector<std::string> lines = {streams[c].next_line(),
                                          place_line(kPlaceK)};
        expected_flows[c].push_back(streams[c].flows());
        return lines;
      },
      after_seconds(config.seconds));
  out.throughput_per_s = closed_throughput(ops, start);

  std::vector<std::size_t> seen(kConnections, 0);
  std::vector<std::optional<PlaceAnswer>> last(kConnections);
  std::vector<const Completed*> first(kConnections, nullptr);
  for (const Completed& op : ops) {
    const std::size_t expected = expected_flows[op.conn][seen[op.conn]++];
    bool ok = !op.dropped && op.responses.size() == 2 &&
              number_field(op.responses[0], "applied") == 1.0 &&
              number_field(op.responses[0], "flows") ==
                  static_cast<double>(expected);
    if (ok) {
      const std::optional<PlaceAnswer> answer = place_answer(op.responses[1]);
      ok = answer && plausible(*answer, kPlaceK, scenario.nodes);
      if (ok) last[op.conn] = answer;
      if (ok && first[op.conn] == nullptr) first[op.conn] = &op;
    }
    count(out, ok, "delta_churn: wrong or failed delta+place");
    if (ok) out.latencies_ms.push_back(ms_between(op.due_ns, op.end_ns));
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    if (last[c]) check_evaluates_to(*rig.conns[c], *last[c], out);
  }
  finish(rig, out);

  // Each connection's first delta+place, recomputed in-process.
  const auto built = build_in_process(load_line(scenario));
  for (const Completed* op : first) {
    if (op == nullptr) continue;
    serve::Session session(built);
    (void)session.place(kPlaceK);
    for (const serve::DeltaOp& delta : deltas_of_request(
             serve::parse_json(op->requests[0]).as_object(), built->net)) {
      session.apply_delta(delta);
    }
    if (place_answer(op->responses[1]) != answer_of(session.place(kPlaceK))) {
      out.problems.push_back("delta_churn: in-process delta+place disagrees");
    }
  }
  out.ops = std::move(ops);
  return out;
}

SocketRun run_city(const RunConfig& config) {
  SocketRun out;
  out.tail_percentile = tail_percentile(kCityOpsPerSecond, config.seconds);
  const std::vector<std::uint64_t> seeds = city_seeds(config.seed);
  Rig rig = timed_setups(
      out, [&](Rig& fresh, int n) { fresh.start(config, n, 0, 1); });

  std::size_t next_seed = 0;
  const std::uint64_t start = now_ns();
  std::vector<Completed> ops = run_closed(
      rig.conns,
      [&](std::size_t) {
        const std::uint64_t seed = seeds[next_seed++ % seeds.size()];
        return std::vector<std::string>{
            city_load_line("seattle", seed), place_line(kPlaceK),
            city_load_line("dublin", seed), place_line(kPlaceK)};
      },
      after_seconds(config.seconds));
  out.throughput_per_s = closed_throughput(ops, start);

  for (const Completed& op : ops) {
    bool ok = !op.dropped && op.responses.size() == 4;
    std::vector<PlaceAnswer> answers;
    for (std::size_t i = 0; ok && i < 4; i += 2) {
      const std::optional<double> nodes =
          number_field(op.responses[i], "nodes");
      const std::optional<PlaceAnswer> answer =
          place_answer(op.responses[i + 1]);
      ok = nodes && answer &&
           plausible(*answer, kPlaceK, static_cast<std::size_t>(*nodes));
      if (ok) answers.push_back(*answer);
    }
    count(out, ok, "city_cold: wrong or failed load+place");
    if (!ok) continue;
    out.latencies_ms.push_back(ms_between(op.due_ns, op.end_ns));
    if (out.digest == 0) out.digest = digest(answers);
  }
  finish(rig, out);

  // The first and the last op's cities, recomputed in-process.
  std::vector<const Completed*> recomputed;
  if (!ops.empty()) recomputed = {&ops.front(), &ops.back()};
  for (const Completed* op : recomputed) {
    if (op->responses.size() != 4) continue;
    for (std::size_t i = 0; i < 4; i += 2) {
      serve::Session session(build_in_process(op->requests[i]));
      if (place_answer(op->responses[i + 1]) !=
          answer_of(session.place(kPlaceK))) {
        out.problems.push_back("city_cold: in-process placement disagrees");
      }
    }
  }
  out.priming.assign(1, {});
  out.ops = std::move(ops);
  return out;
}

}  // namespace

SocketRun run_socket(const RunConfig& config) {
  if (config.workload == "metro_cold") return run_metro(config);
  if (config.workload == "serve_steady") return run_steady(config);
  if (config.workload == "delta_churn") return run_churn(config);
  if (config.workload == "city_cold") return run_city(config);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace rap::bench::e2e
