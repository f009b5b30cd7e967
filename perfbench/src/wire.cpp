#include "wire.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <vector>

namespace bench {

namespace {

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  long outstanding = 0;
};

int connect_nonblocking(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    fail("connect " + path + ": " + std::strerror(errno));
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

void flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      fail(std::string("send: ") + std::strerror(errno));
    }
  }
  c.out.clear();
  c.out_off = 0;
}

/// Reads what is available and calls `line` per complete reply line.
template <typename F>
void drain_input(Conn& c, F&& line) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buf) break;
    } else if (n == 0) {
      fail("papd closed the connection");
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      fail(std::string("recv: ") + std::strerror(errno));
    }
  }
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = c.in.find('\n', start);
    if (nl == std::string::npos) break;
    line(std::string_view(c.in.data() + start, nl - start));
    start = nl + 1;
  }
  c.in.erase(0, start);
}

/// Waits until `deadline` (or forever when deadline is max) for input or
/// writability on any connection.
void wait_io(std::vector<Conn>& conns, Clock::time_point deadline) {
  std::vector<pollfd> fds;
  for (const auto& c : conns) {
    short ev = POLLIN;
    if (c.out_off < c.out.size()) ev |= POLLOUT;
    fds.push_back(pollfd{c.fd, ev, 0});
  }
  timespec ts{};
  timespec* tsp = nullptr;
  if (deadline != Clock::time_point::max()) {
    const auto left = deadline - Clock::now();
    const long long ns =
        std::max<long long>(0, std::chrono::duration_cast<
                                   std::chrono::nanoseconds>(left).count());
    ts.tv_sec = static_cast<time_t>(ns / 1000000000LL);
    ts.tv_nsec = static_cast<long>(ns % 1000000000LL);
    tsp = &ts;
  }
  if (::ppoll(fds.data(), fds.size(), tsp, nullptr) < 0 && errno != EINTR) {
    fail(std::string("ppoll: ") + std::strerror(errno));
  }
}

std::vector<Conn> open_conns(const std::string& socket, int n) {
  std::vector<Conn> conns(static_cast<std::size_t>(n));
  for (auto& c : conns) c.fd = connect_nonblocking(socket);
  return conns;
}

void close_conns(std::vector<Conn>& conns) {
  for (auto& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
}

constexpr double kDrainSeconds = 30.0;

}  // namespace

long reply_id(std::string_view reply) {
  if (reply.substr(0, 6) != "{\"id\":") return -1;
  long id = 0;
  std::size_t i = 6;
  if (i >= reply.size() || reply[i] < '0' || reply[i] > '9') return -1;
  for (; i < reply.size() && reply[i] >= '0' && reply[i] <= '9'; ++i) {
    id = id * 10 + (reply[i] - '0');
  }
  return id;
}

std::string_view reply_body(std::string_view reply) {
  const std::size_t comma = reply.find(',');
  return comma == std::string_view::npos ? reply : reply.substr(comma + 1);
}

PhaseResult run_closed(const std::string& socket, int connections,
                       int depth, double seconds, long first_id,
                       const LineFn& make, const ReplyFn& on_reply) {
  PhaseResult r;
  r.window_s = seconds;
  std::vector<Conn> conns = open_conns(socket, connections);
  std::vector<Clock::time_point> sent_at;
  sent_at.reserve(1 << 20);
  std::string line;
  long next_id = first_id;
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  long outstanding = 0;
  bool sending = true;
  for (;;) {
    const auto now = Clock::now();
    if (sending && now >= end) sending = false;
    if (sending) {
      for (auto& c : conns) {
        while (c.outstanding < depth) {
          line.clear();
          make(next_id, &line);
          line += '\n';
          c.out += line;
          sent_at.push_back(Clock::now());
          ++next_id;
          ++c.outstanding;
          ++outstanding;
          ++r.sent;
        }
        flush(c);
      }
    }
    if (!sending && outstanding == 0) break;
    if (!sending && seconds_since(end) > kDrainSeconds) {
      fail("closed loop: " + std::to_string(outstanding) +
           " replies missing after the drain");
    }
    wait_io(conns, sending ? end : end + std::chrono::seconds(1));
    for (auto& c : conns) {
      flush(c);
      drain_input(c, [&](std::string_view reply) {
        const auto at = Clock::now();
        const long id = reply_id(reply);
        if (id < first_id || id >= next_id) fail("unmatched reply id");
        r.latency_us.add(us_between(sent_at[id - first_id], at));
        if (at < end) ++r.completed_in_window;
        if (on_reply(id, reply)) {
          ++r.ok;
        } else {
          ++r.failed;
        }
        --c.outstanding;
        --outstanding;
      });
    }
  }
  close_conns(conns);
  return r;
}

PhaseResult run_open(const std::string& socket, int connections,
                     double rate_per_s, double seconds, long first_id,
                     const LineFn& make, const ReplyFn& on_reply) {
  PhaseResult r;
  r.window_s = seconds;
  std::vector<Conn> conns = open_conns(socket, connections);
  const long total = static_cast<long>(rate_per_s * seconds);
  const double gap_ns = 1e9 / rate_per_s;
  std::vector<Clock::time_point> due(static_cast<std::size_t>(total));
  std::string line;
  long next = 0;
  long received = 0;
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  for (long k = 0; k < total; ++k) {
    due[k] = t0 + std::chrono::nanoseconds(
                      static_cast<long long>(gap_ns * static_cast<double>(k)));
  }
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  while (received < total) {
    const auto now = Clock::now();
    while (next < total && due[next] <= now) {
      Conn& c = conns[static_cast<std::size_t>(next) % conns.size()];
      line.clear();
      make(first_id + next, &line);
      line += '\n';
      c.out += line;
      flush(c);
      r.late_us.add(us_between(due[next], Clock::now()));
      ++next;
      ++r.sent;
    }
    if (next == total && seconds_since(end) > kDrainSeconds) {
      fail("open loop: " + std::to_string(total - received) +
           " replies missing after the drain");
    }
    wait_io(conns, next < total ? due[next] : end + std::chrono::seconds(1));
    for (auto& c : conns) {
      flush(c);
      drain_input(c, [&](std::string_view reply) {
        const auto at = Clock::now();
        const long id = reply_id(reply);
        const long k = id - first_id;
        if (k < 0 || k >= next) fail("unmatched reply id");
        const double us = us_between(due[k], at);
        r.latency_us.add(us);
        if (at < end) ++r.completed_in_window;
        if (on_reply(id, reply)) {
          ++r.ok;
        } else {
          ++r.failed;
        }
        ++received;
      });
    }
  }
  close_conns(conns);
  return r;
}

}  // namespace bench
