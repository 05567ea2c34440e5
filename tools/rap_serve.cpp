// Placement-as-a-service driver: line-delimited JSON over stdio, or over a
// unix-domain socket serving many clients concurrently.
//
//   rap_serve [--cache-mb=N] [--metrics-out=FILE]
//             [--trace-out=FILE] [--ring-capacity=N]
//             [--log-out=FILE] [--log-level=debug|info|warn|error]
//             [--virtual-ticks]
//             [--listen=SOCKET] [--store-dir=DIR]
//
//   $ echo '{"op":"load","city":"grid","seed":1,"utility":"linear","d":2500}' |
//       rap_serve
//
// One request per stdin line, one response per stdout line, schema
// "rap.serve.v1" (src/serve/protocol.h documents the grammar; DESIGN.md §11
// the architecture; §14 the concurrent transport + store). The process
// exits on EOF or a shutdown request. Diagnostics go to stderr only, so
// stdout stays machine-parseable.
//
// Networked service (DESIGN.md §14):
//   --listen=SOCKET  serve connections on a unix-domain socket instead of
//                  stdio. Each connection gets its own session; distinct
//                  connections are processed concurrently, one connection's
//                  responses arrive in request order. A shutdown request
//                  from any client stops the whole service.
//   --store-dir=DIR  crash-safe scenario persistence: built scenarios are
//                  written as memory-mapped segments keyed by content, and
//                  a restarted server rehydrates its cache from DIR without
//                  re-running generation or matching (it reruns only the
//                  shop's two Dijkstras and the coverage table).
//
// Observability (DESIGN.md §12):
//   --metrics-out  aggregate telemetry (rap.telemetry.v1) on exit
//   --trace-out    install a flight recorder; write the raw event timeline
//                  as Chrome trace JSON (rap.trace.v1, Perfetto-loadable)
//                  on exit. --ring-capacity bounds events kept per thread.
//   --log-out      structured JSONL event log (rap.log.v1) while serving;
//                  "-" logs to stderr. --log-level filters severities.
//   --virtual-ticks  drive all timestamps from the deterministic virtual
//                  clock (one 1 ms tick per request) so traces, logs and
//                  stats snapshots are byte-reproducible across runs.
//
// In RAP_AUDIT builds every placement the server computes runs under the
// invariant auditor (src/check/audit.h) — a violated invariant turns into
// an "internal" error response instead of a wrong placement.
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "src/check/audit.h"
#include "src/core/evaluator.h"
#include "src/obs/event_log.h"
#include "src/obs/events.h"
#include "src/obs/json.h"
#include "src/obs/trace_export.h"
#include "src/serve/server.h"
#include "src/serve/transport.h"
#include "src/util/cli.h"
#include "tools/version_info.h"

int main(int argc, char** argv) {
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--version") == 0) {
        rap::tools::print_version(std::cout, "rap_serve");
        return 0;
      }
    }
    const rap::util::CliFlags flags(argc, argv);
    rap::serve::ServerOptions options;
    options.cache_bytes =
        static_cast<std::size_t>(flags.get_int("cache-mb", 256)) * 1024 * 1024;
    const std::string metrics_out = flags.get_string("metrics-out", "");
    const std::string trace_out = flags.get_string("trace-out", "");
    const auto ring_capacity =
        static_cast<std::size_t>(flags.get_int("ring-capacity", 8192));
    const std::string log_out = flags.get_string("log-out", "");
    const std::string log_level = flags.get_string("log-level", "info");
    const bool virtual_ticks = flags.get_bool("virtual-ticks", false);
    const std::string listen = flags.get_string("listen", "");
    options.store_dir = flags.get_string("store-dir", "");
    for (const std::string& unknown : flags.unused()) {
      std::cerr << "rap_serve: unknown flag --" << unknown << "\n";
      return 2;
    }

    // Install the clock domain before any recorder or log writes a
    // timestamp, so the whole run shares one domain.
    std::optional<rap::obs::VirtualClockGuard> virtual_clock;
    if (virtual_ticks) virtual_clock.emplace();

    std::optional<rap::obs::FlightRecorder> recorder;
    if (!trace_out.empty()) {
      recorder.emplace(rap::obs::RecorderOptions{ring_capacity});
    }

    std::ofstream log_file;
    std::optional<rap::obs::EventLog> log;
    if (!log_out.empty()) {
      const rap::obs::LogLevel min_level =
          rap::obs::parse_log_level(log_level);
      if (log_out == "-") {
        log.emplace(std::cerr, min_level);
      } else {
        const std::filesystem::path path(log_out);
        if (path.has_parent_path()) {
          std::filesystem::create_directories(path.parent_path());
        }
        log_file.open(path);
        if (!log_file) {
          std::cerr << "rap_serve: cannot open --log-out " << log_out << "\n";
          return 2;
        }
        log.emplace(log_file, min_level);
      }
      options.log = &*log;
    }

    std::optional<rap::check::ScopedAuditor> auditor;
    if (rap::core::kAuditCompiledIn) auditor.emplace();

    rap::serve::Server server(options);
    if (server.rehydrated_at_start() > 0) {
      std::cerr << "rap_serve: rehydrated " << server.rehydrated_at_start()
                << " scenario(s) from " << options.store_dir << "\n";
    }
    int rc = 0;
    if (!listen.empty()) {
      rap::serve::UnixListener listener(listen);
      std::cerr << "rap_serve: listening on " << listener.path() << "\n";
      rc = listener.serve(server);
    } else {
      rc = server.run(std::cin, std::cout);
    }
    if (!metrics_out.empty()) {
      rap::obs::write_json(metrics_out, server.telemetry());
      std::cerr << "rap_serve: wrote telemetry to " << metrics_out << "\n";
    }
    if (recorder.has_value()) {
      const rap::obs::ExportSummary summary =
          rap::obs::write_chrome_trace(trace_out, *recorder);
      std::cerr << "rap_serve: wrote " << summary.events_exported
                << " trace events (" << summary.dropped_events
                << " dropped) to " << trace_out << "\n";
    }
    return rc;
  } catch (const std::exception& error) {
    std::cerr << "rap_serve: " << error.what() << "\n";
    return 1;
  }
}
