#include "net/epoll_server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "serve/protocol.h"

namespace stir::net {
namespace {

// epoll_event.data.u64 routing tags; connection ids start above these.
constexpr uint64_t kTagListen = 0;
constexpr uint64_t kTagWake = 1;
constexpr uint64_t kFirstConnId = 2;

constexpr int kMaxEvents = 64;
constexpr int kListenBacklog = 1024;
/// Write-side backpressure: once this many unsent response bytes are
/// buffered for a connection, its read side is parked until the peer
/// drains — the lever that bounds per-connection memory even against a
/// client that pipelines forever without reading.
constexpr size_t kMaxOutBuffered = 256 * 1024;

int SetNonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  if ((flags & O_NONBLOCK) == 0 &&
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return -1;
  }
  return flags;
}

}  // namespace

EpollServer::EpollServer(serve::Server* server, const NetOptions& options)
    : server_(server),
      options_(options),
      max_request_bytes_(server->scheduler().options().max_request_bytes) {
  options_.max_pipeline =
      std::clamp(options_.max_pipeline, 1,
                 server_->scheduler().GuaranteedAdmissionWindow());
  options_.read_chunk_bytes = std::max<size_t>(options_.read_chunk_bytes, 512);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ >= 0 && wake_fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagWake;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
  next_conn_id_ = kFirstConnId;
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* r = options_.metrics;
    m_accepted_ = r->GetCounter("net.connections.accepted");
    m_closed_ = r->GetCounter("net.connections.closed");
    m_dropped_ = r->GetCounter("net.connections.dropped");
    m_live_ = r->GetGauge("net.connections.live");
    m_bytes_in_ = r->GetCounter("net.bytes.in");
    m_bytes_out_ = r->GetCounter("net.bytes.out");
    m_lines_in_ = r->GetCounter("net.lines.in");
    m_responses_out_ = r->GetCounter("net.responses.out");
    m_oversized_ = r->GetCounter("net.oversized");
    for (int t = 0; t < serve::kNumShedTiers; ++t) {
      m_shed_tier_[t] =
          r->GetCounter(StrFormat("net.shed.tier%d", t));
    }
    m_drain_us_ = r->GetHistogram(
        "net.drain.latency_us",
        {100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000});
  }
}

EpollServer::~EpollServer() {
  Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EpollServer::Listen(uint16_t port) {
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return Status::Internal("epoll/eventfd setup failed");
  }
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("Listen() already called");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(StrFormat("socket: %s", ::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::IOError(
        StrFormat("bind 127.0.0.1:%u: %s", port, ::strerror(errno)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, kListenBacklog) < 0) {
    Status st = Status::IOError(StrFormat("listen: %s", ::strerror(errno)));
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTagListen;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    Status st = Status::IOError(
        StrFormat("epoll_ctl(listen): %s", ::strerror(errno)));
    ::close(fd);
    return st;
  }
  listen_fd_ = fd;
  return Status::OK();
}

Status EpollServer::AdoptStdio(int in_fd, int out_fd) {
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return Status::Internal("epoll/eventfd setup failed");
  }
  auto conn = std::make_unique<Conn>();
  conn->id = next_conn_id_++;
  conn->in_fd = in_fd;
  conn->out_fd = out_fd;
  conn->own_fds = false;

  conn->in_fd_restore_flags = SetNonblocking(in_fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, in_fd, &ev) < 0) {
    if (errno != EPERM) {
      return Status::IOError(
          StrFormat("epoll_ctl(stdin): %s", ::strerror(errno)));
    }
    // Regular file (cmake INPUT_FILE redirection): not epollable, but
    // always readable — the loop polls it whenever it can make progress.
    conn->file_in = true;
    if (conn->in_fd_restore_flags >= 0) {
      ::fcntl(in_fd, F_SETFL, conn->in_fd_restore_flags);
      conn->in_fd_restore_flags = -1;
    }
  } else {
    conn->epoll_in = true;
  }

  if (out_fd != in_fd) {
    conn->out_fd_restore_flags = SetNonblocking(out_fd);
    epoll_event wev{};
    wev.events = 0;  // EPOLLOUT armed on the first short write.
    wev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, out_fd, &wev) < 0) {
      if (errno != EPERM) {
        return Status::IOError(
            StrFormat("epoll_ctl(stdout): %s", ::strerror(errno)));
      }
      // Regular file: writes complete synchronously, no readiness needed.
      conn->file_out = true;
      if (conn->out_fd_restore_flags >= 0) {
        ::fcntl(out_fd, F_SETFL, conn->out_fd_restore_flags);
        conn->out_fd_restore_flags = -1;
      }
    }
  } else {
    conn->file_out = conn->file_in;
  }

  {
    std::lock_guard<std::mutex> g(stats_mu_);
    ++stats_.accepted;
    ++stats_.live;
  }
  obs::IncrementCounter(m_accepted_);
  if (m_live_ != nullptr) m_live_->Add(1);
  conns_.emplace(conn->id, std::move(conn));
  return Status::OK();
}

void EpollServer::Run() {
  loop_thread_ = std::this_thread::get_id();
  RunLoop();
  // Quiesce the scheduler before anyone tears this object down: after
  // Drain() returns, no completion callback can still be touching
  // completions_mu_ / wake_fd_.
  server_->Drain();
  loop_finished_ = true;
}

Status EpollServer::Start() {
  if (background_.joinable()) {
    return Status::FailedPrecondition("Start() already called");
  }
  background_ = std::thread([this] { Run(); });
  return Status::OK();
}

void EpollServer::Stop() {
  stop_called_.store(true, std::memory_order_release);
  RequestDrain();
  if (background_.joinable()) background_.join();
}

void EpollServer::RequestDrain() {
  // Async-signal-safe: one atomic store + one write(2).
  drain_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

NetStats EpollServer::stats() const {
  std::lock_guard<std::mutex> g(stats_mu_);
  return stats_;
}

void EpollServer::RunLoop() {
  std::vector<uint64_t> touched;
  epoll_event events[kMaxEvents];
  bool pump_all = false;
  for (;;) {
    if (conns_.empty() && (draining_ || listen_fd_ < 0)) break;
    const int timeout = (pump_all || FileConnRunnable()) ? 0 : -1;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — unrecoverable; drain below still runs.
    }
    touched.clear();
    bool accept_ready = false;
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kTagWake) {
        uint64_t count = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &count, sizeof(count));
      } else if (tag == kTagListen) {
        accept_ready = true;
      } else {
        touched.push_back(tag);
      }
    }
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      TriggerDrain();
    }
    if (accept_ready && listen_fd_ >= 0) AcceptReady();
    ProcessCompletions();
    for (const Completion& c : ready_) touched.push_back(c.conn_id);
    ready_.clear();
    for (const auto& [id, conn] : conns_) {
      if (conn->file_in && WantsRead(*conn)) touched.push_back(id);
    }
    if (draining_ && !pumped_drain_) {
      pumped_drain_ = true;
      pump_all = true;
    }
    if (pump_all) {
      pump_all = false;
      touched.clear();
      touched.reserve(conns_.size());
      for (const auto& [id, conn] : conns_) touched.push_back(id);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (uint64_t id : touched) {
      auto it = conns_.find(id);
      if (it != conns_.end()) Pump(it->second.get());
    }
  }
  if (draining_) {
    const int64_t micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - drain_start_)
            .count();
    {
      std::lock_guard<std::mutex> g(stats_mu_);
      stats_.drain_micros = micros;
    }
    obs::RecordSample(m_drain_us_, micros);
  }
}

void EpollServer::TriggerDrain() {
  if (draining_) return;
  draining_ = true;
  pumped_drain_ = false;
  drain_start_ = std::chrono::steady_clock::now();
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Later submissions — including lines already buffered for connections,
  // which keep flowing below — get typed shutting_down envelopes with
  // their ids echoed, exactly as a draining stdio server answers them.
  server_->BeginDrain();
  for (auto& [id, conn] : conns_) conn->read_closed = true;
}

void EpollServer::AcceptReady() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or transient (EMFILE/ECONNABORTED): retry later.
    }
    if (draining_ ||
        static_cast<int>(conns_.size()) >= options_.max_connections) {
      ::close(fd);
      {
        std::lock_guard<std::mutex> g(stats_mu_);
        ++stats_.dropped;
      }
      obs::IncrementCounter(m_dropped_);
      continue;
    }
    // Responses are small and pipelined: with Nagle on, a response waits
    // behind an unacknowledged earlier one until the client's delayed ACK.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->in_fd = fd;
    conn->out_fd = fd;
    conn->is_socket = true;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conn->epoll_in = true;
    {
      std::lock_guard<std::mutex> g(stats_mu_);
      ++stats_.accepted;
      ++stats_.live;
    }
    obs::IncrementCounter(m_accepted_);
    if (m_live_ != nullptr) m_live_->Add(1);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void EpollServer::ProcessCompletions() {
  {
    std::lock_guard<std::mutex> g(completions_mu_);
    ready_.swap(completions_);
  }
  for (Completion& comp : ready_) {
    auto it = conns_.find(comp.conn_id);
    if (it == conns_.end()) continue;  // Closed while in flight; drop.
    Conn* conn = it->second.get();
    const size_t idx = static_cast<size_t>(comp.seq - conn->base_seq);
    if (idx >= conn->slots.size()) continue;  // Unreachable by contract.
    conn->slots[idx].response = std::move(comp.response);
    conn->slots[idx].ready = true;
    --conn->in_scheduler;
    if (comp.meta.shed && comp.meta.tier >= 0 &&
        comp.meta.tier < serve::kNumShedTiers) {
      {
        std::lock_guard<std::mutex> g(stats_mu_);
        ++stats_.shed_by_tier[comp.meta.tier];
      }
      obs::IncrementCounter(m_shed_tier_[comp.meta.tier]);
    }
    if (comp.meta.deadline_expired) {
      {
        std::lock_guard<std::mutex> g(stats_mu_);
        ++stats_.deadline_expired;
      }
      if (m_deadline_expired_ == nullptr && options_.metrics != nullptr) {
        m_deadline_expired_ = options_.metrics->GetCounter(
            "net.deadline.expired");
      }
      obs::IncrementCounter(m_deadline_expired_);
    }
  }
}

void EpollServer::Pump(Conn* conn) {
  if (WantsRead(*conn)) ReadInto(conn);
  if (conn->peer_dead) {
    CloseConn(conn);
    return;
  }
  FrameAndSubmit(conn);
  FlushReadySlots(conn);
  WriteOut(conn);
  if (conn->peer_dead || FinishedWith(*conn)) {
    CloseConn(conn);
    return;
  }
  UpdateEpollInterest(conn);
}

bool EpollServer::WantsRead(const Conn& conn) const {
  if (conn.read_closed || conn.peer_dead) return false;
  const size_t in_pending = conn.in_buf.size() - conn.in_off;
  if (in_pending >= max_request_bytes_ + options_.read_chunk_bytes) {
    return false;
  }
  return conn.out_buf.size() - conn.out_off < kMaxOutBuffered;
}

bool EpollServer::FileConnRunnable() const {
  for (const auto& [id, conn] : conns_) {
    if (conn->file_in && WantsRead(*conn)) return true;
  }
  return false;
}

void EpollServer::ReadInto(Conn* conn) {
  if (conn->in_off > 0 &&
      (conn->in_off >= conn->in_buf.size() ||
       conn->in_off > options_.read_chunk_bytes)) {
    conn->in_buf.erase(0, conn->in_off);
    conn->in_off = 0;
  }
  const size_t cap = max_request_bytes_ + options_.read_chunk_bytes;
  while (WantsRead(*conn) && conn->in_buf.size() - conn->in_off < cap) {
    const size_t old_size = conn->in_buf.size();
    conn->in_buf.resize(old_size + options_.read_chunk_bytes);
    const ssize_t n =
        ::read(conn->in_fd, conn->in_buf.data() + old_size,
               options_.read_chunk_bytes);
    if (n > 0) {
      conn->in_buf.resize(old_size + static_cast<size_t>(n));
      std::lock_guard<std::mutex> g(stats_mu_);
      stats_.bytes_in += n;
      obs::IncrementCounter(m_bytes_in_, n);
    } else if (n == 0) {
      conn->in_buf.resize(old_size);
      conn->read_closed = true;
      conn->saw_eof = true;
      break;
    } else {
      conn->in_buf.resize(old_size);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // Mid-request disconnect (ECONNRESET and friends): there is no
      // peer left to answer, so the partial line is dropped and the
      // connection torn down; in-flight completions are discarded by id.
      conn->peer_dead = true;
      conn->read_closed = true;
      break;
    }
  }
}

void EpollServer::FrameAndSubmit(Conn* conn) {
  std::string& buf = conn->in_buf;
  for (;;) {
    if (conn->discarding) {
      const size_t pos = buf.find('\n', conn->in_off);
      if (pos == std::string::npos) {
        if (buf.size() > conn->in_off) {
          conn->discard_bytes += buf.size() - conn->in_off;
          conn->discard_last = buf.back();
          conn->in_off = buf.size();
        }
        if (conn->saw_eof) {
          // The oversized line was the last thing the client sent; answer
          // for the bytes that did arrive, like getline's final line.
          size_t len = conn->discard_bytes;
          if (conn->discard_last == '\r' && len > 0) --len;
          conn->discarding = false;
          conn->discard_bytes = 0;
          conn->discard_last = '\0';
          EmitOversized(conn, len);
        }
        break;
      }
      size_t len = conn->discard_bytes + (pos - conn->in_off);
      const char last =
          pos > conn->in_off ? buf[pos - 1] : conn->discard_last;
      if (last == '\r' && len > 0) --len;
      conn->in_off = pos + 1;
      conn->discarding = false;
      conn->discard_bytes = 0;
      conn->discard_last = '\0';
      EmitOversized(conn, len);
      continue;
    }
    const size_t pos = buf.find('\n', conn->in_off);
    if (pos == std::string::npos) {
      const size_t pending = buf.size() - conn->in_off;
      if (pending > max_request_bytes_ + 1) {
        // The line can no longer fit under the cap no matter how it ends
        // (a '\r' just before its newline is not part of the request):
        // stop buffering it and count the rest as it streams past.
        conn->discarding = true;
        conn->discard_bytes = pending;
        conn->discard_last = buf.back();
        conn->in_off = buf.size();
        continue;
      }
      if (conn->saw_eof && pending > 0) {
        if (conn->in_scheduler >= options_.max_pipeline) break;
        // Final line without a trailing newline, as getline serves it.
        std::string_view line(buf.data() + conn->in_off, pending);
        conn->in_off = buf.size();
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        if (!line.empty()) SubmitLine(conn, line);
      }
      break;
    }
    std::string_view line(buf.data() + conn->in_off, pos - conn->in_off);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) {  // Blank lines are keep-alive no-ops (ServeStream).
      conn->in_off = pos + 1;
      continue;
    }
    if (conn->in_scheduler >= options_.max_pipeline) break;
    conn->in_off = pos + 1;
    SubmitLine(conn, line);
  }
}

void EpollServer::SubmitLine(Conn* conn, std::string_view line) {
  conn->slots.emplace_back();
  ++conn->next_seq;
  ++conn->in_scheduler;
  {
    std::lock_guard<std::mutex> g(stats_mu_);
    ++stats_.lines_in;
  }
  obs::IncrementCounter(m_lines_in_);
  const uint64_t id = conn->id;
  const uint64_t seq = conn->next_seq - 1;
  server_->SubmitLineWith(
      line, [this, id, seq](std::string response,
                            const serve::ResponseMeta& meta) {
        {
          std::lock_guard<std::mutex> g(completions_mu_);
          completions_.push_back(
              Completion{id, seq, std::move(response), meta});
        }
        uint64_t one = 1;
        [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
      });
  ++total_lines_;
  if (options_.drain_after_lines > 0 &&
      total_lines_ == options_.drain_after_lines) {
    TriggerDrain();
  }
}

void EpollServer::EmitOversized(Conn* conn, size_t line_bytes) {
  {
    std::lock_guard<std::mutex> g(stats_mu_);
    ++stats_.lines_in;
    ++stats_.oversized;
  }
  obs::IncrementCounter(m_lines_in_);
  obs::IncrementCounter(m_oversized_);
  Slot slot;
  slot.ready = true;
  slot.response =
      serve::OversizedResponse(line_bytes, max_request_bytes_);
  conn->slots.push_back(std::move(slot));
  ++conn->next_seq;
}

void EpollServer::FlushReadySlots(Conn* conn) {
  while (!conn->slots.empty() && conn->slots.front().ready) {
    if (!conn->peer_dead) {
      conn->out_buf.append(conn->slots.front().response);
      conn->out_buf.push_back('\n');
      {
        std::lock_guard<std::mutex> g(stats_mu_);
        ++stats_.responses_out;
      }
      obs::IncrementCounter(m_responses_out_);
    }
    conn->slots.pop_front();
    ++conn->base_seq;
  }
}

void EpollServer::WriteOut(Conn* conn) {
  if (conn->peer_dead) {
    conn->out_buf.clear();
    conn->out_off = 0;
    return;
  }
  while (conn->out_off < conn->out_buf.size()) {
    const size_t pending = conn->out_buf.size() - conn->out_off;
    ssize_t n;
    if (conn->is_socket) {
      n = ::send(conn->out_fd, conn->out_buf.data() + conn->out_off, pending,
                 MSG_NOSIGNAL);
    } else {
      n = ::write(conn->out_fd, conn->out_buf.data() + conn->out_off,
                  pending);
    }
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      std::lock_guard<std::mutex> g(stats_mu_);
      stats_.bytes_out += n;
      obs::IncrementCounter(m_bytes_out_, n);
    } else {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn->peer_dead = true;  // EPIPE/ECONNRESET: discard the rest.
      conn->out_buf.clear();
      conn->out_off = 0;
      return;
    }
  }
  if (conn->out_off >= conn->out_buf.size()) {
    conn->out_buf.clear();
    conn->out_off = 0;
  } else if (conn->out_off > kMaxOutBuffered / 2) {
    conn->out_buf.erase(0, conn->out_off);
    conn->out_off = 0;
  }
}

bool EpollServer::FinishedWith(const Conn& conn) const {
  if (conn.peer_dead) return true;
  if (!conn.read_closed || !conn.slots.empty()) return false;
  // Complete lines still buffered (the window was full when framing
  // stopped) keep the connection alive until they are answered.
  if (conn.in_buf.find('\n', conn.in_off) != std::string::npos) return false;
  // At true EOF a trailing newline-less line still counts as a request;
  // a drain-truncated partial line does not.
  if (conn.saw_eof && conn.in_off < conn.in_buf.size()) return false;
  if (conn.discarding && conn.saw_eof) return false;
  return conn.out_off >= conn.out_buf.size();
}

void EpollServer::CloseConn(Conn* conn) {
  if (conn->in_fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->in_fd, nullptr);
  }
  if (conn->out_fd >= 0 && conn->out_fd != conn->in_fd) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->out_fd, nullptr);
  }
  if (conn->own_fds) {
    ::close(conn->in_fd);
    if (conn->out_fd != conn->in_fd) ::close(conn->out_fd);
  } else {
    // Adopted stdio fds stay open; undo our O_NONBLOCK.
    if (conn->in_fd_restore_flags >= 0) {
      ::fcntl(conn->in_fd, F_SETFL, conn->in_fd_restore_flags);
    }
    if (conn->out_fd_restore_flags >= 0) {
      ::fcntl(conn->out_fd, F_SETFL, conn->out_fd_restore_flags);
    }
  }
  {
    std::lock_guard<std::mutex> g(stats_mu_);
    ++stats_.closed;
    --stats_.live;
  }
  obs::IncrementCounter(m_closed_);
  if (m_live_ != nullptr) m_live_->Add(-1);
  conns_.erase(conn->id);  // Invalidates conn.
}

void EpollServer::UpdateEpollInterest(Conn* conn) {
  const bool want_read = WantsRead(*conn) && !conn->file_in;
  const bool want_write =
      conn->out_off < conn->out_buf.size() && !conn->file_out &&
      !conn->peer_dead;
  if (conn->out_fd == conn->in_fd) {
    if (want_read == conn->epoll_in && want_write == conn->epoll_out) return;
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->in_fd, &ev) == 0) {
      conn->epoll_in = want_read;
      conn->epoll_out = want_write;
    }
    return;
  }
  if (!conn->file_in && want_read != conn->epoll_in) {
    epoll_event ev{};
    ev.events = want_read ? EPOLLIN : 0u;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->in_fd, &ev) == 0) {
      conn->epoll_in = want_read;
    }
  }
  if (!conn->file_out && want_write != conn->epoll_out) {
    epoll_event ev{};
    ev.events = want_write ? EPOLLOUT : 0u;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->out_fd, &ev) == 0) {
      conn->epoll_out = want_write;
    }
  }
}

}  // namespace stir::net
