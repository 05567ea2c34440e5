#include "bench/e2e/client.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

extern char** environ;

namespace rap::bench::e2e {
namespace {

constexpr std::uint64_t kNsPerMs = 1'000'000;
constexpr std::uint64_t kSpinNs = 1'000'000;

/// A connected, blocking unix-socket fd, or -1 when nothing listens yet.
int connect_unix(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof address.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket(): ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void sleep_us(int micros) {
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary, std::string socket,
                             std::size_t cache_mb,
                             const std::filesystem::path& log_path)
    : socket_(std::move(socket)) {
  ::unlink(socket_.c_str());
  const std::string listen = "--listen=" + socket_;
  const std::string cache = "--cache-mb=" + std::to_string(cache_mb);
  const std::string log = log_path.string();
  std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                             const_cast<char*>(listen.c_str()),
                             const_cast<char*>(cache.c_str()), nullptr};
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    throw std::runtime_error("fork(): " + std::string(std::strerror(errno)));
  }
  if (pid_ == 0) {
    // Only async-signal-safe calls until exec. The server dies with the
    // benchmark, however the benchmark ends.
    const int in = ::open("/dev/null", O_RDONLY);
    const int out = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (in < 0 || out < 0 || ::dup2(in, 0) < 0 || ::dup2(out, 1) < 0 ||
        ::dup2(out, 2) < 0 || ::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 ||
        ::getppid() != parent) {
      ::_exit(127);
    }
    if (in > 2) ::close(in);
    if (out > 2) ::close(out);
    ::execve(binary.c_str(), argv.data(), environ);
    ::_exit(127);
  }
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error(binary + " exited during start-up (see " +
                               log + ")");
    }
    if (const int fd = connect_unix(socket_); fd >= 0) {
      ::close(fd);
      return;
    }
    if (std::chrono::steady_clock::now() > give_up) {
      kill_and_reap();
      throw std::runtime_error(binary + " did not listen on " + socket_);
    }
    sleep_us(200);
  }
}

ServerProcess::~ServerProcess() { kill_and_reap(); }

void ServerProcess::kill_and_reap() noexcept {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  ::unlink(socket_.c_str());
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

bool ServerProcess::shutdown() {
  if (pid_ <= 0) return false;
  try {
    Connection conn(socket_);
    (void)conn.roundtrip(R"({"op":"shutdown"})");
  } catch (const std::exception&) {
    kill_and_reap();
    return false;
  }
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < give_up) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      ::unlink(socket_.c_str());
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    sleep_us(1000);
  }
  kill_and_reap();
  return false;
}

Connection::Connection(const std::string& socket) : fd_(connect_unix(socket)) {
  if (fd_ < 0) throw std::runtime_error("cannot connect to " + socket);
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::send(const std::string& line) {
  out_ += line;
  out_ += '\n';
  return flush();
}

bool Connection::flush() {
  while (!out_.empty()) {
    const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
    if (n > 0) {
      out_.erase(0, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }
  return true;
}

bool Connection::fill() {
  char buffer[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
    if (n > 0) {
      in_.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

std::optional<std::string> Connection::pop_line() {
  const std::size_t newline = in_.find('\n');
  if (newline == std::string::npos) return std::nullopt;
  std::string line = in_.substr(0, newline);
  in_.erase(0, newline + 1);
  return line;
}

std::string Connection::roundtrip(const std::string& line) {
  if (!send(line)) throw std::runtime_error("connection dropped on send");
  while (true) {
    if (std::optional<std::string> response = pop_line()) return *response;
    pollfd fd{fd_, static_cast<short>(POLLIN | (wants_write() ? POLLOUT : 0)),
              0};
    const int ready = ::poll(&fd, 1, 150'000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) throw std::runtime_error("no response within 150 s");
    if ((fd.revents & POLLOUT) != 0 && !flush()) {
      throw std::runtime_error("connection dropped on send");
    }
    if ((fd.revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !fill() &&
        in_.find('\n') == std::string::npos) {
      throw std::runtime_error("connection closed before the response");
    }
  }
}

std::vector<Completed> run_closed(
    std::span<const std::unique_ptr<Connection>> conns, const NextOp& next,
    std::uint64_t deadline_ns) {
  struct State {
    bool active = false;
    Completed op;
    std::size_t line = 0;
    std::uint64_t line_sent_ns = 0;
  };
  std::vector<State> states(conns.size());
  std::vector<Completed> done;
  const auto finish = [&](State& state, bool dropped) {
    state.op.dropped = dropped;
    state.op.end_ns = now_ns();
    done.push_back(std::move(state.op));
    state.active = false;
  };
  const auto start = [&](std::size_t c) {
    State& state = states[c];
    state.active = false;
    if (now_ns() >= deadline_ns) return;
    std::vector<std::string> lines = next(c);
    if (lines.empty()) return;
    state.op = Completed{};
    state.op.conn = c;
    state.op.requests = std::move(lines);
    state.line = 0;
    state.op.due_ns = state.op.sent_ns = state.line_sent_ns = now_ns();
    state.active = true;
    if (!conns[c]->send(state.op.requests[0])) finish(state, true);
  };
  for (std::size_t c = 0; c < conns.size(); ++c) start(c);

  std::vector<pollfd> fds(conns.size());
  while (std::any_of(states.begin(), states.end(),
                     [](const State& s) { return s.active; })) {
    for (std::size_t c = 0; c < conns.size(); ++c) {
      short events = 0;
      if (states[c].active) {
        events = static_cast<short>(
            POLLIN | (conns[c]->wants_write() ? POLLOUT : 0));
      }
      fds[c] = pollfd{conns[c]->fd(), events, 0};
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("poll(): " + std::string(std::strerror(errno)));
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      State& state = states[c];
      if (!state.active || fds[c].revents == 0) continue;
      if ((fds[c].revents & POLLOUT) != 0 && !conns[c]->flush()) {
        finish(state, true);
        continue;
      }
      const bool alive = conns[c]->fill();
      while (state.active) {
        std::optional<std::string> line = conns[c]->pop_line();
        if (!line) break;
        const std::uint64_t t = now_ns();
        state.op.responses.push_back(std::move(*line));
        state.op.service_ms +=
            static_cast<double>(t - state.line_sent_ns) / kNsPerMs;
        if (++state.line < state.op.requests.size()) {
          state.line_sent_ns = now_ns();
          if (!conns[c]->send(state.op.requests[state.line])) {
            finish(state, true);
          }
        } else {
          finish(state, false);
          start(c);
        }
      }
      if (!alive && state.active) finish(state, true);
    }
  }
  return done;
}

OpenRun run_open(std::span<const std::unique_ptr<Connection>> conns,
                 std::span<const Scheduled> schedule, std::uint64_t grace_ns) {
  OpenRun run;
  run.ops.resize(schedule.size());
  std::vector<std::deque<std::size_t>> pending(conns.size());
  std::vector<bool> alive(conns.size(), true);
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::uint64_t last_send_ns = 0;
  std::vector<pollfd> fds(conns.size());

  const auto drop_connection = [&](std::size_t c) {
    alive[c] = false;
    for (const std::size_t index : pending[c]) run.ops[index].dropped = true;
    outstanding -= pending[c].size();
    pending[c].clear();
  };

  while (true) {
    std::uint64_t now = now_ns();
    while (next < schedule.size() && schedule[next].due_ns <= now) {
      const Scheduled& request = schedule[next];
      Completed& op = run.ops[next];
      op.conn = request.conn;
      op.requests = {request.line};
      op.due_ns = request.due_ns;
      op.sent_ns = now_ns();
      if (alive[request.conn] && conns[request.conn]->send(request.line)) {
        pending[request.conn].push_back(next);
        run.inflight_max = std::max(run.inflight_max, ++outstanding);
      } else {
        op.dropped = true;
        if (alive[request.conn]) drop_connection(request.conn);
      }
      last_send_ns = op.sent_ns;
      ++next;
      now = now_ns();
    }
    const bool all_sent = next == schedule.size();
    if (all_sent && (outstanding == 0 || now >= last_send_ns + grace_ns)) break;

    // Sleep until shortly before the next send, then poll without blocking:
    // a generator that sleeps up to the due time adds its own wake-up delay
    // to every latency it measures.
    std::uint64_t wait_ns = 0;
    if (all_sent) {
      wait_ns = last_send_ns + grace_ns - now;
    } else if (schedule[next].due_ns > now + kSpinNs) {
      wait_ns = schedule[next].due_ns - now - kSpinNs;
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      short events = 0;
      if (alive[c]) {
        events = static_cast<short>(
            POLLIN | (conns[c]->wants_write() ? POLLOUT : 0));
      }
      fds[c] = pollfd{conns[c]->fd(), events, 0};
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("ppoll(): " + std::string(std::strerror(errno)));
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (!alive[c] || fds[c].revents == 0) continue;
      if ((fds[c].revents & POLLOUT) != 0 && !conns[c]->flush()) {
        drop_connection(c);
        continue;
      }
      const bool open = conns[c]->fill();
      while (std::optional<std::string> line = conns[c]->pop_line()) {
        if (pending[c].empty()) break;  // a line nobody asked for
        Completed& op = run.ops[pending[c].front()];
        pending[c].pop_front();
        --outstanding;
        op.end_ns = now_ns();
        op.responses = {std::move(*line)};
        op.service_ms = static_cast<double>(op.end_ns - op.sent_ns) / kNsPerMs;
      }
      if (!open) drop_connection(c);
    }
  }
  run.unanswered = outstanding;
  return run;
}

}  // namespace rap::bench::e2e
