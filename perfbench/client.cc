#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <deque>

#include "bench.h"

namespace stir::perfbench {
namespace {

/// Rendered bytes a connection may hold unsent; due shots beyond this
/// wait as indices, so a server that stops reading cannot make the
/// client's memory grow with the backlog.
constexpr size_t kMaxBufferedBytes = 64 * 1024;

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  bool want_write = false;
  std::string in;
  std::deque<size_t> unrendered;  ///< Due shots not yet in `out`.
  std::deque<size_t> inflight;    ///< Shot indices awaiting a response.
  bool dead = false;
};

void SetInterest(int ep, size_t index, Conn* conn, bool want_write) {
  if (conn->want_write == want_write) return;
  conn->want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = index;
  ::epoll_ctl(ep, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Flush(int ep, size_t index, Conn* conn, const std::vector<Shot>& shots,
           const RenderFn& render) {
  for (;;) {
    while (!conn->unrendered.empty() &&
           conn->out.size() - conn->out_off < kMaxBufferedBytes) {
      const size_t shot = conn->unrendered.front();
      conn->unrendered.pop_front();
      render(shots[shot], &conn->out);
      conn->out += '\n';
      conn->inflight.push_back(shot);
    }
    if (conn->out_off == conn->out.size()) break;
    const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      if (conn->out_off == conn->out.size()) {
        conn->out.clear();
        conn->out_off = 0;
      } else if (conn->out_off >= kMaxBufferedBytes) {
        conn->out.erase(0, conn->out_off);
        conn->out_off = 0;
      }
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      conn->dead = true;
      return;
    }
  }
  SetInterest(ep, index, conn,
              conn->out_off < conn->out.size() || !conn->unrendered.empty());
}

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

}  // namespace

LoadResult RunOpenLoop(uint16_t port, int conns, const std::vector<Shot>& shots,
                       const RenderFn& render, const ResponseFn& on_response,
                       int64_t drain_timeout_ns) {
  LoadResult result;
  result.timings.resize(shots.size());
  std::vector<Conn> cs(static_cast<size_t>(conns));
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  auto close_all = [&] {
    for (Conn& conn : cs) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    if (ep >= 0) ::close(ep);
  };
  if (ep < 0) {
    result.connect_failed = true;
    close_all();
    return result;
  }
  for (size_t i = 0; i < cs.size(); ++i) {
    cs[i].fd = Connect(port);
    if (cs[i].fd < 0) {
      result.connect_failed = true;
      close_all();
      return result;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, cs[i].fd, &ev);
  }

  const size_t n = shots.size();
  const int64_t last_due = n == 0 ? 0 : shots.back().due_ns;
  const int64_t start = NowNs();
  size_t next = 0;
  std::vector<size_t> touched;
  std::vector<epoll_event> events(64);
  char buf[64 * 1024];
  for (;;) {
    int64_t now = NowNs() - start;
    touched.clear();
    while (next < n && shots[next].due_ns <= now) {
      const Shot& shot = shots[next];
      cs[static_cast<size_t>(shot.conn)].unrendered.push_back(next);
      result.timings[next].sent_ns = now;
      touched.push_back(static_cast<size_t>(shot.conn));
      ++next;
    }
    for (size_t index : touched) {
      if (!cs[index].dead) Flush(ep, index, &cs[index], shots, render);
    }
    bool any_dead = false;
    for (const Conn& conn : cs) any_dead |= conn.dead;
    if (any_dead) break;
    if (next == n && result.responses == static_cast<int64_t>(n)) break;
    if (next == n && now > last_due + drain_timeout_ns) break;
    // While shots remain the loop polls instead of sleeping, so that it
    // never waits on its own wake-up: a sleeping thread on a virtual CPU
    // can take milliseconds to run again, which would be charged to the
    // server as latency.
    const int ready = ::epoll_wait(ep, events.data(),
                                   static_cast<int>(events.size()),
                                   next < n ? 0 : 20);
    if (ready < 0 && errno != EINTR) break;
    for (int e = 0; e < ready; ++e) {
      const size_t key = events[e].data.u64;
      Conn& conn = cs[key];
      if (events[e].events & EPOLLOUT) Flush(ep, key, &conn, shots, render);
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      for (;;) {
        const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (got > 0) {
          conn.in.append(buf, static_cast<size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          conn.dead = true;
        }
        break;
      }
      // The server leaves Nagle's algorithm on, so a response written
      // while an earlier one is unacknowledged waits for the client's ACK;
      // acknowledging at once keeps a delayed ACK from holding it.
      const int one = 1;
      ::setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      const int64_t done = NowNs() - start;
      size_t line_start = 0;
      for (size_t pos; (pos = conn.in.find('\n', line_start)) !=
                       std::string::npos;
           line_start = pos + 1) {
        if (conn.inflight.empty()) {
          conn.dead = true;  // A response nobody asked for.
          break;
        }
        const size_t shot = conn.inflight.front();
        conn.inflight.pop_front();
        result.timings[shot].done_ns = done;
        ++result.responses;
        on_response(shot, std::string_view(conn.in.data() + line_start,
                                           pos - line_start));
      }
      conn.in.erase(0, line_start);
    }
  }
  close_all();
  return result;
}

}  // namespace stir::perfbench
