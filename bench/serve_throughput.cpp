// Serve-path throughput bench: requests/second through Server::handle_line
// on the Seattle-grid preset, across the three regimes the scenario cache
// and warm-start engine are built for:
//   * cold   — every load misses the cache (cache disabled), so each
//              request pays the full scenario build (Dijkstras) plus a
//              from-scratch greedy;
//   * cached — load hits the scenario cache, so the request pays only
//              session setup plus a from-scratch greedy;
//   * warm   — repeated place on a live session, reusing warm-start state.
// Writes BENCH_serve.json in the rap.bench.v1 schema (bench/common.h), so
// tools/bench_compare can gate regressions against bench/baselines/.
// The acceptance bar: cached place >= 5x cold.
//
// With --net-out the networked regimes run too and land in a second
// document (BENCH_serve_net.json):
//   * net.single      — one socket client, requests/second + p50/p99;
//   * net.concurrent  — N clients (--clients) hammering one listener
//                       concurrently; aggregate throughput must hold the
//                       single-client baseline (concurrent_over_single
//                       gates >= 1x within tolerance on multi-core hosts);
//   * store.*         — kill-and-restart against --store-dir segments:
//                       every scenario rehydrates (strict count) and
//                       re-loading them costs zero rebuilds (strict zero).
//
//   serve_throughput [--out=BENCH_serve.json] [--iters=5] [--k=8]
//                    [--net-out=BENCH_serve_net.json] [--clients=4]
//                    [--net-requests=4000]
//
// The networked rates time only the request loop: each client's clock
// starts after its scenario load, so req/s and the latency percentiles
// measure serving, not the one-off build.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/common.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/transport.h"
#include "src/util/cli.h"

namespace {

using namespace rap;

struct Regime {
  std::string name;
  double ms_per_request = 0.0;
  [[nodiscard]] double requests_per_second() const {
    return ms_per_request > 0.0 ? 1'000.0 / ms_per_request : 0.0;
  }
};

std::string expect_ok(serve::Server& server, const std::string& line) {
  std::string response = server.handle_line(line);
  const serve::JsonValue parsed = serve::parse_json(response);
  if (!parsed.as_object().at("ok").as_bool()) {
    throw std::runtime_error("request failed: " + response);
  }
  return response;
}

/// Best-of-iters wall time for one request, in ms.
template <typename Fn>
double time_best_ms(std::size_t iters, Fn&& fn) {
  double best = 1e300;
  for (std::size_t i = 0; i < iters; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return best;
}

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(rank, sorted_ms.size() - 1)];
}

std::string expect_ok(serve::UnixClient& client, const std::string& line) {
  std::string response = client.request(line);
  const serve::JsonValue parsed = serve::parse_json(response);
  if (!parsed.as_object().at("ok").as_bool()) {
    throw std::runtime_error("request failed: " + response);
  }
  return response;
}

using SteadyTime = std::chrono::steady_clock::time_point;

/// When a client's timed request loop started and stopped.
struct TimedSpan {
  SteadyTime start;
  SteadyTime stop;
};

/// One socket client: load once (untimed), then `requests` timed
/// places/evaluates. Appends per-request latencies to `latencies_ms`.
TimedSpan run_client(const std::string& socket, const std::string& load_line,
                     std::size_t requests, std::size_t k,
                     std::vector<double>& latencies_ms) {
  serve::UnixClient client(socket);
  (void)expect_ok(client, load_line);
  latencies_ms.reserve(requests);
  const SteadyTime loop_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    const std::string line =
        i % 2 == 0 ? R"({"op":"place","k":)" + std::to_string(1 + i % k) + "}"
                   : R"({"op":"evaluate","nodes":[0]})";
    const auto start = std::chrono::steady_clock::now();
    (void)expect_ok(client, line);
    const auto stop = std::chrono::steady_clock::now();
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return {loop_start, std::chrono::steady_clock::now()};
}

/// The networked + persistence regimes; writes its own rap.bench.v1 doc.
void run_net_bench(const std::string& out, std::size_t clients,
                   std::size_t requests, std::size_t k) {
  const std::string socket =
      "/tmp/rap_bench_serve_" + std::to_string(::getpid()) + ".sock";
  const std::string store_dir =
      std::filesystem::temp_directory_path() /
      ("rap_bench_store_" + std::to_string(::getpid()));
  std::filesystem::remove_all(store_dir);
  const std::string load_line =
      R"({"op":"load","city":"grid","seed":1,"journeys":60,"d":2500})";

  std::vector<bench::BenchMetric> metrics;

  // --- single-client baseline over the socket ---------------------------
  double single_req_s = 0.0;
  {
    serve::Server server;
    serve::UnixListener listener(socket);
    std::thread serving([&] { (void)listener.serve(server); });
    {
      std::vector<double> latencies;
      const TimedSpan span =
          run_client(socket, load_line, requests, k, latencies);
      const double wall_s =
          std::chrono::duration<double>(span.stop - span.start).count();
      single_req_s =
          wall_s > 0.0 ? static_cast<double>(requests) / wall_s : 0.0;
    }
    listener.stop();
    serving.join();
  }
  metrics.push_back({"net.single.req_s", single_req_s, "req_s", false});

  // --- N concurrent clients ---------------------------------------------
  double concurrent_req_s = 0.0;
  std::vector<double> all_latencies;
  {
    serve::Server server;
    serve::UnixListener listener(socket);
    std::thread serving([&] { (void)listener.serve(server); });
    {
      std::vector<std::vector<double>> latencies(clients);
      std::vector<TimedSpan> spans(clients);
      std::vector<std::thread> threads;
      std::atomic<bool> failed{false};
      threads.reserve(clients);
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c]() {
          try {
            spans[c] = run_client(socket, load_line, requests, k, latencies[c]);
          } catch (const std::exception&) {
            failed.store(true);
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      if (failed.load()) throw std::runtime_error("a bench client failed");
      // From the first client's loop start to the last client's loop stop.
      SteadyTime start = spans.front().start;
      SteadyTime stop = spans.front().stop;
      for (const TimedSpan& span : spans) {
        start = std::min(start, span.start);
        stop = std::max(stop, span.stop);
      }
      const double wall_s =
          std::chrono::duration<double>(stop - start).count();
      concurrent_req_s =
          wall_s > 0.0
              ? static_cast<double>(clients * requests) / wall_s
              : 0.0;
      for (std::vector<double>& client_latencies : latencies) {
        all_latencies.insert(all_latencies.end(), client_latencies.begin(),
                             client_latencies.end());
      }
    }
    listener.stop();
    serving.join();
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  metrics.push_back({"net.concurrent.req_s", concurrent_req_s, "req_s",
                     false});
  metrics.push_back(
      {"net.concurrent.p50_ms", percentile(all_latencies, 50.0), "ms", true});
  metrics.push_back(
      {"net.concurrent.p99_ms", percentile(all_latencies, 99.0), "ms", true});
  metrics.push_back({"net.clients", static_cast<double>(clients), "count",
                     false});
  // The tentpole bar: N clients together must sustain at least the
  // single-client rate (tolerance applies; ~1x on a single-core host,
  // above it with real cores).
  metrics.push_back({"concurrent_over_single_throughput",
                     single_req_s > 0.0 ? concurrent_req_s / single_req_s
                                        : 0.0,
                     "x", false});

  // --- kill-and-restart rehydration -------------------------------------
  constexpr std::size_t kStoredScenarios = 3;
  {
    serve::ServerOptions options;
    options.store_dir = store_dir;
    serve::Server server(options);
    for (std::size_t seed = 1; seed <= kStoredScenarios; ++seed) {
      (void)expect_ok(
          server, R"({"op":"load","city":"grid","seed":)" +
                      std::to_string(seed) + R"(,"journeys":60,"d":2500})");
    }
  }  // the only survivors are the segment files
  {
    serve::ServerOptions options;
    options.store_dir = store_dir;
    const auto start = std::chrono::steady_clock::now();
    serve::Server restarted(options);
    const auto stop = std::chrono::steady_clock::now();
    for (std::size_t seed = 1; seed <= kStoredScenarios; ++seed) {
      (void)expect_ok(
          restarted, R"({"op":"load","city":"grid","seed":)" +
                         std::to_string(seed) + R"(,"journeys":60,"d":2500})");
    }
    const std::string stats = expect_ok(restarted, R"({"op":"stats"})");
    const double rebuilds = serve::parse_json(stats)
                                .as_object()
                                .at("server")
                                .as_object()
                                .at("scenario_builds")
                                .as_number();
    metrics.push_back({"store.rehydrated",
                       static_cast<double>(restarted.rehydrated_at_start()),
                       "count", false});
    metrics.push_back({"store.rebuilds_after_restart", rebuilds, "count",
                       true});
    metrics.push_back(
        {"store.rehydrate_ms",
         std::chrono::duration<double, std::milli>(stop - start).count(),
         "ms", true});
  }
  std::filesystem::remove_all(store_dir);

  bench::write_bench_json(out, "serve_net",
                          {{"city", "grid"},
                           {"clients", std::to_string(clients)},
                           {"requests", std::to_string(requests)},
                           {"k", std::to_string(k)}},
                          metrics);
  for (const bench::BenchMetric& metric : metrics) {
    std::cout << metric.name << ": " << metric.value << " " << metric.unit
              << "\n";
  }
  std::cout << "wrote " << out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliFlags flags(argc, argv);
    const std::string out = flags.get_string("out", "BENCH_serve.json");
    const auto iters = static_cast<std::size_t>(flags.get_int("iters", 5));
    const auto k = static_cast<std::size_t>(flags.get_int("k", 8));
    const std::string net_out = flags.get_string("net-out", "");
    const auto clients =
        static_cast<std::size_t>(flags.get_int("clients", 4));
    const auto net_requests =
        static_cast<std::size_t>(flags.get_int("net-requests", 4'000));

    const std::string load_line =
        R"({"op":"load","city":"seattle","seed":7,"journeys":100,"d":2500})";
    const std::string place_line =
        R"({"op":"place","k":)" + std::to_string(k) + "}";

    std::vector<Regime> regimes;

    {
      serve::ServerOptions options;
      options.cache_bytes = 0;  // every load rebuilds the scenario
      serve::Server server(options);
      regimes.push_back({"cold", time_best_ms(iters, [&] {
                           expect_ok(server, load_line);
                           expect_ok(server, place_line);
                         })});
    }
    {
      serve::Server server;
      expect_ok(server, load_line);  // prime the cache
      regimes.push_back({"cached", time_best_ms(iters, [&] {
                           expect_ok(server, load_line);
                           expect_ok(server, place_line);
                         })});
      // Warm regime: same session, place only; after the first place every
      // further one reuses warm-start state.
      expect_ok(server, place_line);
      regimes.push_back({"warm", time_best_ms(iters, [&] {
                           expect_ok(server, place_line);
                         })});
    }

    const double speedup = regimes[0].ms_per_request > 0.0
                               ? regimes[0].ms_per_request /
                                     regimes[1].ms_per_request
                               : 0.0;

    std::vector<bench::BenchMetric> metrics;
    for (const Regime& regime : regimes) {
      metrics.push_back({regime.name + ".ms_per_request",
                         regime.ms_per_request, "ms", true});
      metrics.push_back({regime.name + ".requests_per_second",
                         regime.requests_per_second(), "req_s", false});
    }
    metrics.push_back({"cached_over_cold_speedup", speedup, "x", false});
    bench::write_bench_json(out, "serve_throughput",
                            {{"city", "seattle"},
                             {"k", std::to_string(k)},
                             {"iters", std::to_string(iters)}},
                            metrics);

    for (const Regime& regime : regimes) {
      std::cout << regime.name << ": " << regime.ms_per_request
                << " ms/request (" << regime.requests_per_second()
                << " req/s)\n";
    }
    std::cout << "cached place is " << speedup << "x cold; wrote " << out
              << "\n";
    if (!net_out.empty()) {
      run_net_bench(net_out, clients, net_requests, k);
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "serve_throughput: " << error.what() << "\n";
    return 1;
  }
}
