#include "bench/e2e/replay.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench/e2e/answers.h"
#include "bench/e2e/stats.h"
#include "src/citygen/grid_city.h"
#include "src/citygen/partial_grid_city.h"
#include "src/citygen/radial_city.h"
#include "src/core/problem.h"
#include "src/graph/io.h"
#include "src/obs/events.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace_export.h"
#include "src/serve/server.h"
#include "src/serve/session.h"
#include "src/trace/classify.h"
#include "src/trace/flow_extractor.h"
#include "src/trace/generator.h"
#include "src/trace/io.h"
#include "src/trace/map_matcher.h"

namespace rap::bench::e2e {
namespace {

using serve::JsonValue;

/// Layers timed by spans (self time) or derived (detour, handle, transport).
constexpr const char* kLayers[] = {
    "graph_io", "trace_io", "citygen", "trace_gen", "map_match",
    "shop_pick", "build", "detour", "problem", "place",
    "delta", "evaluate", "protocol", "handle", "transport"};

/// Per-thread tallies of the layer pass.
struct Tally {
  std::map<std::string, double> counts;  // extra per-layer counts by name
  double detour_ms = 0.0;
  std::uint64_t detour_calls = 0;
  std::vector<double> op_ms;
  std::vector<std::string> problems;

  void note(const std::string& problem) {
    if (problems.size() < 10) problems.push_back(problem);
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

/// Events each replay thread's flight-recorder ring keeps: the layer pass
/// of a full serve_steady run records about 50,000 per thread.
constexpr std::size_t kTraceRingEvents = std::size_t{1} << 17;

/// Runs `fn` under a span and returns the span's length in ns.
template <typename Fn>
std::uint64_t spanned(obs::Tracer& tracer, const char* name, Fn&& fn) {
  const std::uint64_t start = now_ns();
  {
    const obs::Span span(&tracer, name);
    fn();
  }
  return now_ns() - start;
}

void fold_into(const obs::Tracer::Node& node,
               std::map<std::string, LayerTotal>& totals) {
  for (const auto& child : node.children) {
    LayerTotal& total = totals[child->name];
    total.self_ns += child->self_ns();
    total.calls += child->calls;
    fold_into(*child, totals);
  }
}

/// A response with the fields that depend on cache state (which connection
/// happened to load first) removed.
std::string comparable(const std::string& line) {
  try {
    JsonValue value = serve::parse_json(line);
    if (value.is_object()) {
      value.as_object().erase("cached");
      value.as_object().erase("source");
    }
    return serve::to_json(value);
  } catch (const std::exception&) {
    return line;
  }
}

/// The generated cities of a `load` by city name: the presets of the serve
/// layer's scenario builder (src/serve/scenario_cache.cpp), repeated so the
/// build's pieces can be timed one by one. The replay checks that it
/// arrives at the same flows and shop, so a drifted preset fails loudly.
struct CityPreset {
  trace::TraceGenSpec gen;
  double snap_radius = 0.0;
};

graph::RoadNetwork generate_city(const serve::ScenarioSpec& spec,
                                 util::Rng& rng, CityPreset& preset) {
  preset.gen.num_journeys = spec.journeys;
  preset.gen.alpha = 0.001;
  preset.gen.mean_runs_per_journey = 30.0;
  preset.gen.sample_spacing = 350.0;
  preset.gen.gps_noise = 60.0;
  preset.gen.passengers_per_vehicle = 200.0;
  preset.snap_radius = 230.0;
  if (spec.city == "dublin") {
    citygen::RadialSpec city;
    city.rings = 12;
    city.nodes_on_first_ring = 8;
    city.nodes_per_ring_step = 5;
    city.ring_spacing = 3'300.0;
    preset.gen.mean_runs_per_journey = 40.0;
    preset.gen.sample_spacing = 900.0;
    preset.gen.gps_noise = 150.0;
    preset.gen.passengers_per_vehicle = 100.0;
    preset.snap_radius = 450.0;
    return citygen::build_radial_city(city, rng);
  }
  if (spec.city == "seattle") {
    citygen::PartialGridSpec city;
    city.grid = {21, 21, 500.0, {0.0, 0.0}};
    return citygen::PartialGridCity(city, rng).network();
  }
  return citygen::GridCity({15, 15, 500.0, {0.0, 0.0}}).network();
}

trace::LocationClass shop_class(const std::string& name) {
  if (name == "center") return trace::LocationClass::kCityCenter;
  if (name == "suburb") return trace::LocationClass::kSuburb;
  return trace::LocationClass::kCity;
}

std::uint64_t incidence_entries(const core::PlacementProblem& problem) {
  std::uint64_t entries = 0;
  for (graph::NodeId v = 0; v < problem.num_nodes(); ++v) {
    entries += problem.reach_at(v).size();
  }
  return entries;
}

/// The incidence build over `flows` on the scenario's shared detour engine;
/// returns its length in ns.
std::uint64_t replay_problem(obs::Tracer& tracer, Tally& tally,
                             const serve::ServeScenario& scenario,
                             const std::vector<traffic::TrafficFlow>& flows) {
  std::unique_ptr<core::PlacementProblem> problem;
  const std::uint64_t ns = spanned(tracer, "problem", [&] {
    problem = std::make_unique<core::PlacementProblem>(
        scenario.net, flows, scenario.shop, *scenario.utility,
        std::make_unique<serve::SharedDetours>(scenario.detours));
  });
  tally.counts["problem.incidence_entries"] +=
      static_cast<double>(incidence_entries(*problem));
  return ns;
}

/// Re-runs the parts of build_scenario the layer pass can name, after the
/// build, and credits the rest of the build's time to detour pricing.
void replay_build_parts(obs::Tracer& tracer, Tally& tally,
                        const serve::ScenarioSpec& spec,
                        const serve::ServeScenario& scenario,
                        std::uint64_t build_ns) {
  std::uint64_t parts_ns = 0;
  std::size_t flows = 0;
  std::size_t nodes = 0;
  if (!spec.network_path.empty()) {
    graph::RoadNetwork net;
    parts_ns += spanned(tracer, "graph_io", [&] {
      const std::string text = read_file(spec.network_path);
      tally.counts["graph_io.bytes"] += static_cast<double>(text.size());
      net = graph::network_from_csv(text, spec.network_path);
    });
    parts_ns += spanned(tracer, "trace_io", [&] {
      const std::string text = read_file(spec.flows_path);
      tally.counts["trace_io.bytes"] += static_cast<double>(text.size());
      flows = trace::flows_from_csv(net, text, spec.flows_path).size();
    });
    nodes = net.num_nodes();
  } else {
    util::Rng rng(spec.seed);
    CityPreset preset;
    graph::RoadNetwork net;
    trace::SyntheticTrace day;
    std::vector<traffic::TrafficFlow> matched;
    parts_ns += spanned(tracer, "citygen",
                        [&] { net = generate_city(spec, rng, preset); });
    parts_ns += spanned(tracer, "trace_gen", [&] {
      day = trace::generate_trace(net, preset.gen, rng);
    });
    parts_ns += spanned(tracer, "map_match", [&] {
      const trace::MapMatcher matcher(net, preset.snap_radius);
      trace::ExtractionOptions extract;
      extract.passengers_per_vehicle = preset.gen.passengers_per_vehicle;
      extract.alpha = preset.gen.alpha;
      matched = trace::extract_flows(matcher, day.records, extract);
    });
    tally.counts["citygen.records"] += static_cast<double>(net.num_nodes());
    tally.counts["trace_gen.records"] +=
        static_cast<double>(day.records.size());
    tally.counts["map_match.records"] += static_cast<double>(matched.size());
    if (spec.shop == graph::kInvalidNode) {
      graph::NodeId shop = graph::kInvalidNode;
      parts_ns += spanned(tracer, "shop_pick", [&] {
        const std::vector<trace::LocationClass> classes =
            trace::classify_intersections(net, matched);
        const std::vector<graph::NodeId> pool =
            trace::nodes_in_class(classes, shop_class(spec.shop_class));
        util::Rng pick(spec.seed ^ 0x5eed);
        if (!pool.empty()) shop = pool[pick.next_below(pool.size())];
      });
      tally.counts["shop_pick.records"] += static_cast<double>(net.num_nodes());
      if (shop != scenario.shop) tally.note("replayed shop pick differs");
    }
    flows = matched.size();
    nodes = net.num_nodes();
  }
  if (flows != scenario.flows.size() || nodes != scenario.net.num_nodes()) {
    tally.note("replayed build inputs differ from the built scenario");
  }
  parts_ns += replay_problem(tracer, tally, scenario, scenario.flows);
  tally.detour_ms +=
      static_cast<double>(build_ns > parts_ns ? build_ns - parts_ns : 0) / 1e6;
  ++tally.detour_calls;
}

/// The layer pass of one connection: its priming untraced, then every op
/// under spans, each load and delta followed by its build parts.
void replay_layers(const std::vector<std::string>& priming,
                   const std::vector<const Completed*>& ops,
                   const std::shared_ptr<const serve::ServeScenario>& shared,
                   obs::Tracer& tracer, Tally& tally) {
  std::unique_ptr<serve::Session> session;
  for (const std::string& line : priming) {
    const JsonValue request = serve::parse_json(line);
    if (serve::get_string(request.as_object(), "op", "") == "load") {
      session = std::make_unique<serve::Session>(shared);
    } else {
      (void)session->place(budget_of(request.as_object()));
    }
  }
  for (const Completed* op : ops) {
    struct Rebuilt {
      serve::ScenarioSpec spec;
      std::shared_ptr<const serve::ServeScenario> scenario;
      std::uint64_t build_ns = 0;
    };
    std::vector<Rebuilt> builds;
    bool delta_applied = false;
    const std::uint64_t op_start = now_ns();
    {
      const obs::Span op_span(&tracer, "op");
      for (std::size_t i = 0; i < op->requests.size(); ++i) {
        const std::string& response = op->responses.at(i);
        JsonValue request;
        (void)spanned(tracer, "protocol", [&] {
          request = serve::parse_json(op->requests[i]);
          (void)serve::to_json(request);
          (void)serve::to_json(serve::parse_json(response));
        });
        tally.counts["protocol.bytes"] +=
            static_cast<double>(op->requests[i].size() + response.size());
        const JsonValue::Object& fields = request.as_object();
        const std::string verb = serve::get_string(fields, "op", "");
        if (verb == "load") {
          Rebuilt built{spec_of_load(fields), nullptr, 0};
          built.build_ns = spanned(tracer, "build", [&] {
            built.scenario = serve::build_scenario(
                built.spec, serve::scenario_key(built.spec));
          });
          session = std::make_unique<serve::Session>(built.scenario);
          if (number_field(response, "nodes") !=
                  static_cast<double>(built.scenario->net.num_nodes()) ||
              number_field(response, "shop") !=
                  static_cast<double>(built.scenario->shop)) {
            tally.note("replayed load differs: " + op->requests[i]);
          }
          builds.push_back(std::move(built));
        } else if (verb == "place") {
          serve::WarmStartResult result;
          (void)spanned(tracer, "place", [&] {
            result = session->place(budget_of(fields));
          });
          tally.counts["place.gain_evaluations"] +=
              static_cast<double>(result.gain_evaluations);
          tally.counts["place.warm_reused"] += result.reused ? 1.0 : 0.0;
          tally.counts["place.fallbacks"] += result.fell_back ? 1.0 : 0.0;
          ++tally.counts["place.places"];
          if (place_answer(response) != answer_of(result)) {
            tally.note("replayed place differs: " + op->requests[i]);
          }
        } else if (verb == "evaluate") {
          double value = 0.0;
          (void)spanned(tracer, "evaluate",
                        [&] { value = session->evaluate(nodes_of(fields)); });
          if (number_field(response, "customers") != value) {
            tally.note("replayed evaluate differs: " + op->requests[i]);
          }
        } else if (verb == "delta") {
          (void)spanned(tracer, "delta", [&] {
            for (const serve::DeltaOp& delta :
                 deltas_of_request(fields, session->scenario().net)) {
              session->apply_delta(delta);
            }
          });
          delta_applied = true;
          if (number_field(response, "flows") !=
              static_cast<double>(session->flows().size())) {
            tally.note("replayed delta differs: " + op->requests[i]);
          }
        }
      }
    }
    tally.op_ms.push_back(static_cast<double>(now_ns() - op_start) / 1e6);
    // Outside the op: the pieces a build or a delta ran that no span could
    // see into.
    for (const Rebuilt& built : builds) {
      replay_build_parts(tracer, tally, built.spec, *built.scenario,
                         built.build_ns);
    }
    if (delta_applied) {
      (void)replay_problem(tracer, tally, session->scenario(), session->flows());
    }
  }
}

/// Runs `fn(c)` for every connection on its own thread, joined before
/// returning; an exception becomes a problem of that connection.
template <typename Fn>
void per_connection(std::size_t connections, std::vector<Tally>& tallies,
                    Fn&& fn) {
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        fn(c);
      } catch (const std::exception& error) {
        tallies[c].note(std::string("replay failed: ") + error.what());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

double diagnostic(const SocketRun& run, const std::string& name) {
  for (const BenchMetric& metric : run.diagnostics) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

}  // namespace

const std::vector<BenchMetric>& per_layer_metrics() {
  static const std::vector<BenchMetric> metrics = [] {
    std::vector<BenchMetric> list;
    list.push_back({"layer.op_total_ms", 0.0, "ms", true});
    for (const std::string layer : kLayers) {
      list.push_back({"layer." + layer + ".share", 0.0, "ratio", true});
      list.push_back({"layer." + layer + ".calls", 0.0, "count", true});
    }
    for (const char* name :
         {"graph_io.bytes", "trace_io.bytes", "protocol.bytes"}) {
      list.push_back({name, 0.0, "bytes", true});
    }
    for (const char* name :
         {"citygen.records", "trace_gen.records", "map_match.records",
          "shop_pick.records", "dijkstra.nodes_settled",
          "graph.oracle.settled", "problem.incidence_entries",
          "place.gain_evaluations", "place.fallbacks", "steady.inflight_max"}) {
      list.push_back({name, 0.0, "count", true});
    }
    list.push_back({"place.warm_reuse_ratio", 0.0, "ratio", false});
    list.push_back({"trace_overhead_ratio", 0.0, "ratio", true});
    return list;
  }();
  return metrics;
}

std::map<std::string, LayerTotal> fold_layers(
    std::span<const obs::Tracer> tracers) {
  std::map<std::string, LayerTotal> totals;
  for (const obs::Tracer& tracer : tracers) fold_into(tracer.root(), totals);
  return totals;
}

Replay replay(const SocketRun& run, const std::filesystem::path& trace_path) {
  const std::size_t connections = run.priming.size();
  std::vector<std::vector<const Completed*>> ops(connections);
  for (const Completed& op : run.ops) ops.at(op.conn).push_back(&op);
  Replay out;
  std::map<std::string, double> values;

  // Pass 1: Server::handle_line in-process, untraced.
  std::map<const Completed*, double> handle_ms;
  std::vector<Tally> tallies(connections);
  {
    serve::ServerOptions options;
    options.cache_bytes = run.cache_mb * 1024 * 1024;
    serve::Server server(options);
    std::vector<serve::ClientId> clients;
    std::vector<std::vector<double>> times(connections);
    for (std::size_t c = 0; c < connections; ++c) {
      clients.push_back(server.open_client());
    }
    per_connection(connections, tallies, [&](std::size_t c) {
      for (const std::string& line : run.priming[c]) {
        (void)server.handle_line(clients[c], line);
      }
      for (const Completed* op : ops[c]) {
        const std::uint64_t start = now_ns();
        std::vector<std::string> responses;
        for (const std::string& line : op->requests) {
          responses.push_back(server.handle_line(clients[c], line));
        }
        times[c].push_back(static_cast<double>(now_ns() - start) / 1e6);
        for (std::size_t i = 0; i < responses.size(); ++i) {
          if (comparable(responses[i]) != comparable(op->responses.at(i))) {
            tallies[c].note("in-process answer differs: " + op->requests[i]);
          }
        }
      }
    });
    for (std::size_t c = 0; c < connections; ++c) {
      for (std::size_t i = 0; i < times[c].size(); ++i) {
        handle_ms[ops[c][i]] = times[c][i];
      }
      server.close_client(clients[c]);
    }
    // Search work, from the server's own telemetry sink (0 when absent).
    const auto& counters = server.telemetry().metrics.counters();
    for (const char* name : {"dijkstra.nodes_settled", "graph.oracle.settled"}) {
      if (const auto it = counters.find(name); it != counters.end()) {
        values[name] = static_cast<double>(it->second.value());
      }
    }
  }

  // Pass 2: the layers' own functions, each under a span on its thread's
  // tracer; the recorder keeps the timeline, the library's spans included.
  std::shared_ptr<const serve::ServeScenario> shared;
  if (!run.priming.empty() && !run.priming[0].empty()) {
    shared = build_in_process(run.priming[0][0]);
  }
  std::vector<obs::Tracer> tracers(connections);
  {
    obs::FlightRecorder recorder(obs::RecorderOptions{kTraceRingEvents});
    per_connection(connections, tallies, [&](std::size_t c) {
      replay_layers(run.priming[c], ops[c], shared, tracers[c], tallies[c]);
    });
    const obs::ExportSummary exported =
        obs::write_chrome_trace(trace_path, recorder);
    out.details.push_back({"trace.events",
                           static_cast<double>(exported.events_exported),
                           "count", false});
    out.details.push_back({"trace.dropped_events",
                           static_cast<double>(exported.dropped_events),
                           "count", true});
  }

  for (const auto& [name, total] : fold_layers(tracers)) {
    values["layer." + name + ".self_ms"] =
        static_cast<double>(total.self_ns) / 1e6;
    values["layer." + name + ".calls"] = static_cast<double>(total.calls);
  }
  std::vector<double> op_ms;
  for (const Tally& tally : tallies) {
    for (const auto& [name, count] : tally.counts) values[name] += count;
    values["layer.detour.self_ms"] += tally.detour_ms;
    values["layer.detour.calls"] += static_cast<double>(tally.detour_calls);
    op_ms.insert(op_ms.end(), tally.op_ms.begin(), tally.op_ms.end());
    for (const std::string& problem : tally.problems) {
      out.problems.push_back(problem);
    }
  }
  std::vector<double> handle_op_ms;
  for (const auto& [op, ms] : handle_ms) {
    values["layer.handle.self_ms"] += ms;
    values["layer.handle.calls"] += static_cast<double>(op->requests.size());
    values["layer.transport.self_ms"] += op->service_ms - ms;
    values["layer.transport.calls"] += static_cast<double>(op->requests.size());
    handle_op_ms.push_back(ms);
  }
  if (values["place.places"] > 0.0) {
    values["place.warm_reuse_ratio"] =
        values["place.warm_reused"] / values["place.places"];
  }
  const double untraced_p50 = percentile(handle_op_ms, 50.0);
  if (untraced_p50 > 0.0) {
    values["trace_overhead_ratio"] = percentile(op_ms, 50.0) / untraced_p50;
  }
  values["steady.inflight_max"] = diagnostic(run, "steady.inflight_max");
  // Each layer's time as a share of the traced op time: a layer a workload
  // never calls reads 0 as a ratio, never as a time, and a share moves
  // with the code rather than with how fast the host ran that minute. The
  // absolute self times go into the run's document.
  double op_total_ms = 0.0;
  for (const double ms : op_ms) op_total_ms += ms;
  values["layer.op_total_ms"] = op_total_ms;
  for (const std::string layer : kLayers) {
    const double self_ms = values["layer." + layer + ".self_ms"];
    if (op_total_ms > 0.0) {
      values["layer." + layer + ".share"] = self_ms / op_total_ms;
    }
    out.details.push_back(
        {"layer." + layer + ".self_ms", self_ms, "ms", true});
  }
  for (BenchMetric metric : per_layer_metrics()) {
    metric.value = values[metric.name];
    out.metrics.push_back(std::move(metric));
  }
  return out;
}

}  // namespace rap::bench::e2e
