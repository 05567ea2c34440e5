// Socket transport for the placement server: a unix-domain listener that
// serves N concurrent connections over the same line-delimited
// "rap.serve.v1" protocol the stdio loop speaks (tools/rap_serve --listen).
//
// Model: one accept loop, one handler thread per connection, one server
// client per connection (Server::open_client / close_client), so every
// connection gets its own session slot and its requests are answered in
// arrival order while distinct connections run concurrently — the
// concurrency itself lives in Server::handle_line(client, line), the
// transport just feeds it. Unix-domain sockets keep the transport
// dependency-free (no address parsing, no TLS) while exercising the full
// N-client path; anything that can open a socket — netcat, a Python
// client, another rap_serve process — can talk to it.
//
// Shutdown: the accept loop polls at a short interval and exits once the
// server reports shutdown_requested() (any client's shutdown request, so
// one connection can stop the whole service) or stop() is called; live
// connections are then shut down (unblocking their reads) and joined, and
// the socket file is unlinked. A connection line longer than kMaxLineBytes
// gets one bad_request response and the connection is closed — the cap
// bounds per-connection memory against a client that never sends '\n'.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

#include "src/serve/server.h"

namespace rap::serve {

/// Per-connection request-line cap (8 MiB): inline-CSV scenarios fit with
/// room to spare, unbounded buffering does not.
inline constexpr std::size_t kMaxLineBytes = 8ULL * 1024 * 1024;

/// Listening unix-domain socket bound at construction. Non-copyable; the
/// destructor closes the socket and unlinks the path.
class UnixListener {
 public:
  /// Binds + listens on `socket_path` (an existing socket file left by a
  /// crashed process is replaced). Throws std::runtime_error on failure.
  explicit UnixListener(std::string socket_path);
  ~UnixListener();
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Accepts and serves connections until the server requests shutdown or
  /// stop() is called; joins every connection thread before returning.
  /// Returns 0.
  int serve(Server& server);

  /// Makes serve() return after its current poll interval (thread-safe;
  /// callable from signal-ish contexts or another thread).
  void stop() noexcept;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::atomic<bool> stop_{false};
};

/// Blocking client for tests and the throughput bench: connects at
/// construction, then request() sends one line and reads one response line.
class UnixClient {
 public:
  /// Throws std::runtime_error when the socket cannot be reached.
  explicit UnixClient(const std::string& socket_path);
  ~UnixClient();
  UnixClient(const UnixClient&) = delete;
  UnixClient& operator=(const UnixClient&) = delete;

  /// Sends `line` (newline appended) and blocks for the one response line
  /// (returned without its newline). Throws std::runtime_error when the
  /// connection drops first.
  [[nodiscard]] std::string request(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes received past the last returned line
};

}  // namespace rap::serve
