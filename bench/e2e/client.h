// Process and socket plumbing of the socket run: one rap_serve child on a
// unix socket, non-blocking line-framed connections to it, and the two
// loops that drive them from a single thread — closed (each connection sends
// its next request when the last one is answered) and open (requests go out
// on a fixed schedule whether or not earlier ones were answered).
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rap::bench::e2e {

/// Nanoseconds on the steady clock, the time base of every measurement.
[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A rap_serve process listening on a unix socket. The destructor kills and
/// reaps it if shutdown() did not, so no child outlives the benchmark.
class ServerProcess {
 public:
  /// Spawns `binary --listen=<socket> --cache-mb=<cache_mb>` with stderr
  /// appended to `log_path`, and returns once the socket accepts
  /// connections. Throws std::runtime_error when the child exits or the
  /// socket does not come up within ten seconds.
  ServerProcess(const std::string& binary, std::string socket,
                std::size_t cache_mb, const std::filesystem::path& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ServerProcess(ServerProcess&&) = delete;
  ServerProcess& operator=(ServerProcess&&) = delete;

  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

  /// The child's peak resident set (VmHWM) in MiB; 0 when unreadable.
  [[nodiscard]] double peak_rss_mb() const;

  /// Sends a shutdown request and waits for the child to exit, killing it
  /// after five seconds. Returns true when it exited cleanly by itself.
  bool shutdown();

 private:
  void kill_and_reap() noexcept;

  std::string socket_;
  pid_t pid_ = -1;
};

/// One unix-socket connection speaking line-delimited rap.serve.v1.
class Connection {
 public:
  /// Connects (throws std::runtime_error on failure) and switches the
  /// socket to non-blocking mode.
  explicit Connection(const std::string& socket);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  Connection(Connection&&) = delete;
  Connection& operator=(Connection&&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Sends `line` and blocks for its response; throws std::runtime_error
  /// when the connection drops. For set-up only — timed phases use the
  /// loops below.
  [[nodiscard]] std::string roundtrip(const std::string& line);

  /// Queues `line` plus a newline and writes what the socket takes now.
  /// Returns false when the peer is gone.
  bool send(const std::string& line);
  [[nodiscard]] bool wants_write() const noexcept { return !out_.empty(); }
  /// Writes queued bytes; false when the peer is gone.
  bool flush();
  /// Reads what is available; false on end of stream or error.
  bool fill();
  /// The next complete response line, if one has arrived.
  [[nodiscard]] std::optional<std::string> pop_line();

 private:
  int fd_ = -1;
  std::string in_;
  std::string out_;
};

/// One operation as the loop saw it: its request lines, their responses
/// and its times on the steady clock.
struct Completed {
  std::size_t conn = 0;
  std::vector<std::string> requests;
  std::vector<std::string> responses;
  std::uint64_t due_ns = 0;   ///< scheduled send (open loop) or op start
  std::uint64_t sent_ns = 0;  ///< first request actually written
  std::uint64_t end_ns = 0;   ///< last response read
  double service_ms = 0.0;    ///< sum of each request's send-to-response time
  bool dropped = false;       ///< the connection closed before the answer
};

/// Request lines of a connection's next operation; empty ends that
/// connection's loop.
using NextOp = std::function<std::vector<std::string>(std::size_t conn)>;

/// Closed loop: every connection runs operations back to back, each request
/// sent when the previous one is answered, and starts no operation after
/// `deadline_ns`. Returns the completed operations in completion order.
[[nodiscard]] std::vector<Completed> run_closed(
    std::span<const std::unique_ptr<Connection>> conns, const NextOp& next,
    std::uint64_t deadline_ns);

/// One open-loop request.
struct Scheduled {
  std::uint64_t due_ns = 0;
  std::size_t conn = 0;
  std::string line;
};

struct OpenRun {
  /// One per scheduled request, in schedule order; an unanswered one has no
  /// response.
  std::vector<Completed> ops;
  std::size_t unanswered = 0;    ///< still outstanding when the loop ended
  std::size_t inflight_max = 0;  ///< most requests outstanding at once
};

/// Open loop: sends each request at its due time (in schedule order, which
/// must be by due time) on its connection, and stops `grace_ns` after the
/// last send or once every request is answered.
[[nodiscard]] OpenRun run_open(
    std::span<const std::unique_ptr<Connection>> conns,
    std::span<const Scheduled> schedule, std::uint64_t grace_ns);

}  // namespace rap::bench::e2e
