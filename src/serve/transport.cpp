#include "src/serve/transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace rap::serve {
namespace {

/// Accept-loop poll interval: the shutdown latency ceiling.
constexpr int kPollMs = 50;

void close_quietly(int fd) noexcept {
  if (fd >= 0) ::close(fd);
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof address.sun_path) {
    throw std::runtime_error("socket path too long: '" + path + "'");
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ::ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_line(int fd, const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  return send_all(fd, out.data(), out.size());
}

/// The fixed response for an over-long request line — built by hand because
/// the line never reaches the parser.
const std::string& oversize_response() {
  static const std::string response =
      std::string(R"({"schema":"rap.serve.v1","ok":false,"error":)") +
      R"({"code":"bad_request","message":"request line exceeds )" +
      std::to_string(kMaxLineBytes) + R"( bytes"}})";
  return response;
}

/// One connection: read lines, answer each via the server, until EOF, a
/// dropped write, an oversize line, or server shutdown. The fd stays open —
/// the accept loop owns it (closing here would race its shutdown() sweep
/// against kernel fd-number reuse).
void serve_connection(Server& server, int fd, std::atomic<bool>& done) {
  const ClientId client = server.open_client();
  std::string buffer;
  char chunk[64 * 1024];
  bool open = true;
  while (open && !server.shutdown_requested()) {
    const ::ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: the client is gone
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t newline = buffer.find('\n', start);
         newline != std::string::npos;
         newline = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (line.size() > kMaxLineBytes) {  // complete but over the cap
        (void)send_line(fd, oversize_response());
        open = false;
        break;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (!send_line(fd, server.handle_line(client, line))) {
        open = false;
        break;
      }
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      (void)send_line(fd, oversize_response());
      break;
    }
  }
  server.close_client(client);
  (void)::shutdown(fd, SHUT_RDWR);
  done.store(true, std::memory_order_release);
}

}  // namespace

UnixListener::UnixListener(std::string socket_path)
    : path_(std::move(socket_path)) {
  const sockaddr_un address = make_address(path_);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::runtime_error("cannot create unix socket");
  }
  // A previous process that crashed leaves its socket file behind; binding
  // over it needs the unlink (connect() to the stale file fails, so this
  // cannot steal a live listener's clients by accident in normal use).
  (void)::unlink(path_.c_str());
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0 ||
      ::listen(fd_, 64) != 0) {
    const std::string reason = std::strerror(errno);
    close_quietly(fd_);
    fd_ = -1;
    throw std::runtime_error("cannot listen on '" + path_ + "': " + reason);
  }
}

UnixListener::~UnixListener() {
  close_quietly(fd_);
  (void)::unlink(path_.c_str());
}

void UnixListener::stop() noexcept {
  stop_.store(true, std::memory_order_relaxed);
}

int UnixListener::serve(Server& server) {
  // Only the accept loop touches this list; handler threads signal `done`
  // and the loop reaps (join + close) between accepts, so a long-lived
  // server does not accumulate dead threads or fds.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::unique_ptr<std::atomic<bool>> done;
  };
  std::vector<Connection> connections;
  const auto reap = [&connections](bool all) {
    for (Connection& connection : connections) {
      if (!all && !connection.done->load(std::memory_order_acquire)) continue;
      if (connection.thread.joinable()) connection.thread.join();
      close_quietly(connection.fd);
      connection.fd = -1;
    }
    std::erase_if(connections,
                  [](const Connection& connection) {
                    return connection.fd < 0;
                  });
  };

  while (!server.shutdown_requested() &&
         !stop_.load(std::memory_order_relaxed)) {
    pollfd poll_fd{};
    poll_fd.fd = fd_;
    poll_fd.events = POLLIN;
    const int ready = ::poll(&poll_fd, 1, kPollMs);
    if (ready < 0 && errno != EINTR) break;
    reap(/*all=*/false);
    if (ready <= 0 || (poll_fd.revents & POLLIN) == 0) continue;
    const int connection_fd = ::accept(fd_, nullptr, nullptr);
    if (connection_fd < 0) continue;
    // Bound send() so a client that stops reading cannot pin its handler
    // thread forever (the exit sweep only shuts the read side down).
    timeval send_timeout{};
    send_timeout.tv_sec = 30;
    (void)::setsockopt(connection_fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                       sizeof send_timeout);
    auto done = std::make_unique<std::atomic<bool>>(false);
    // One of the two sanctioned raw-thread sites in the tree (with
    // util/thread_pool — rap_lint RAP009): handler threads are per-connection
    // and joined by the reap sweep, never detached.
    std::thread thread([&server, connection_fd, flag = done.get()]() {
      serve_connection(server, connection_fd, *flag);
    });
    connections.push_back(
        {connection_fd, std::move(thread), std::move(done)});
  }

  // Unblock every connection still waiting in recv(), then join them all.
  // Read side only: a handler mid-request must still deliver its response
  // (the `shutdown` acknowledgement in particular); it closes the write
  // side itself once its loop exits.
  for (Connection& connection : connections) {
    (void)::shutdown(connection.fd, SHUT_RD);
  }
  reap(/*all=*/true);
  return 0;
}

UnixClient::UnixClient(const std::string& socket_path) {
  const sockaddr_un address = make_address(socket_path);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::runtime_error("cannot create unix socket");
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    const std::string reason = std::strerror(errno);
    close_quietly(fd_);
    fd_ = -1;
    throw std::runtime_error("cannot connect to '" + socket_path +
                             "': " + reason);
  }
}

UnixClient::~UnixClient() { close_quietly(fd_); }

std::string UnixClient::request(const std::string& line) {
  if (fd_ < 0 || !send_line(fd_, line)) {
    throw std::runtime_error("serve connection closed while sending");
  }
  char chunk[64 * 1024];
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string response = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return response;
    }
    const ::ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw std::runtime_error("serve connection closed before a response");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace rap::serve
