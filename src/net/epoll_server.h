#ifndef STIR_NET_EPOLL_SERVER_H_
#define STIR_NET_EPOLL_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "serve/scheduler.h"
#include "serve/server.h"

namespace stir::net {

/// Knobs for the epoll front-end (DESIGN.md §13).
struct NetOptions {
  /// Per-connection pipelining window: at most this many requests of one
  /// connection are in flight in the scheduler at once. Further complete
  /// lines wait in the connection's read buffer; further bytes wait in
  /// the kernel (the read side is de-registered once the buffer fills) —
  /// per-connection backpressure that can never block the event loop.
  /// Clamped to the scheduler's guaranteed-admission window so a lone
  /// connection can never shed itself.
  int max_pipeline = 64;
  /// Accept cap: connections beyond this are accepted and immediately
  /// closed (counted in net.connections.dropped) so the kernel backlog
  /// cannot grow unboundedly.
  int max_connections = 4096;
  /// recv() chunk size.
  size_t read_chunk_bytes = 16 * 1024;
  /// Testing hook: when > 0, begin a graceful drain (as if SIGTERM had
  /// arrived) right after the Nth request line has been submitted, before
  /// any later buffered line — deterministic drain coverage for the
  /// smoke test, identical in stdio and TCP modes.
  int64_t drain_after_lines = 0;
  /// Metrics sink (not owned); populates the net.* namespace.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Point-in-time counters mirrored into net.* metrics when a registry is
/// attached. The shed counters reconcile exactly with the scheduler's
/// rejected_by_tier when all traffic arrives through this front-end.
struct NetStats {
  int64_t accepted = 0;
  int64_t closed = 0;
  int64_t dropped = 0;  ///< Over the accept cap (closed without serving).
  int64_t live = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  int64_t lines_in = 0;       ///< Lines submitted (+ framing rejections).
  int64_t responses_out = 0;  ///< Response lines queued for writing.
  int64_t oversized = 0;      ///< Lines rejected by the framer.
  int64_t shed_by_tier[serve::kNumShedTiers] = {};
  /// Responses that were the retryable `deadline_exceeded` envelope —
  /// reconciles with the scheduler's deadline_exceeded when all traffic
  /// arrives through this front-end. Zero without deadlines.
  int64_t deadline_expired = 0;
  int64_t drain_micros = -1;  ///< Drain-request-to-loop-exit; -1 = none.
};

/// Single-threaded epoll event loop multiplexing many line-protocol
/// connections over one serve::Server (DESIGN.md §13). Nonblocking
/// accept + read/write buffering over raw fds; per-connection request
/// pipelining with responses re-ordered back to request order; tiered
/// admission metadata surfaced as net.shed.* counters; graceful drain
/// (stop accepting, flush in-flight, close idle) on RequestDrain — which
/// is async-signal-safe, so a SIGINT/SIGTERM handler may call it.
///
/// Determinism contract: a connection's response stream depends only on
/// its own request stream — responses come back in request order, and
/// every index-answered method is pure — so for any interleaving of N
/// connections and any worker count, each connection's bytes equal the
/// same requests served alone over stdio (absent overload shedding and
/// the explicitly history-dependent server_stats).
class EpollServer {
 public:
  /// `server` must outlive the EpollServer.
  EpollServer(serve::Server* server, const NetOptions& options);
  ~EpollServer();

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port — read it back
  /// with port()) with a nonblocking listener. Call before Run/Start.
  Status Listen(uint16_t port);

  /// Registers an already-open fd pair as one connection speaking the
  /// line protocol (the stdio front-end: in_fd=0, out_fd=1). Regular
  /// files — not epollable — are handled by a ready-when-idle fallback,
  /// so `stir_serve --stdio < requests.txt` works unchanged. The fds are
  /// not closed on teardown; their O_NONBLOCK state is restored.
  Status AdoptStdio(int in_fd = 0, int out_fd = 1);

  /// Runs the event loop on the calling thread until it finishes: with a
  /// listener, until a drain completes; stdio-only, until the connection
  /// reaches EOF and its last response is flushed (or a drain). Drains
  /// the underlying server before returning, so no completion callback
  /// is in flight afterwards.
  void Run();

  /// Run() on a background thread (tests / benches).
  Status Start();
  /// RequestDrain + join the Start() thread. Idempotent.
  void Stop();

  /// Begins a graceful drain: stop accepting, stop reading, flush every
  /// in-flight response, answer already-buffered lines through the
  /// draining scheduler (typed `shutting_down` envelopes), close.
  /// Async-signal-safe (atomic store + eventfd write).
  void RequestDrain();

  uint16_t port() const { return port_; }
  NetStats stats() const;

 private:
  struct Slot {
    bool ready = false;
    std::string response;
  };

  struct Conn {
    uint64_t id = 0;
    int in_fd = -1;
    int out_fd = -1;
    bool own_fds = true;      ///< TCP: close on teardown; stdio: keep.
    bool is_socket = false;   ///< send(MSG_NOSIGNAL) instead of write.
    bool file_in = false;     ///< in_fd not epollable: poll when idle.
    bool file_out = false;    ///< out_fd not epollable: write blocking.
    bool epoll_in = false;    ///< Registered interest, kept in sync.
    bool epoll_out = false;
    int in_fd_restore_flags = -1;   ///< Adopted fds get O_NONBLOCK undone.
    int out_fd_restore_flags = -1;
    std::string in_buf;       ///< Unframed bytes; in_off consumed prefix.
    size_t in_off = 0;
    bool discarding = false;  ///< Oversized line being skipped.
    size_t discard_bytes = 0;
    char discard_last = '\0';
    std::deque<Slot> slots;   ///< In-flight, request order.
    uint64_t base_seq = 0;    ///< Slot seq of slots.front().
    uint64_t next_seq = 0;
    int in_scheduler = 0;     ///< Unanswered submissions (window gauge).
    std::string out_buf;
    size_t out_off = 0;
    bool read_closed = false;
    bool saw_eof = false;     ///< True EOF (vs. drain-forced read stop).
    bool peer_dead = false;   ///< Write side broken: discard responses.
  };

  struct Completion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    std::string response;
    serve::ResponseMeta meta;
  };

  void RunLoop();
  void AcceptReady();
  void ProcessCompletions();
  /// Advances one connection as far as it can go without blocking:
  /// read -> frame/submit (within the window) -> flush ready responses ->
  /// write. Closes and erases the connection when fully finished.
  void Pump(Conn* conn);
  void ReadInto(Conn* conn);
  void FrameAndSubmit(Conn* conn);
  void SubmitLine(Conn* conn, std::string_view line);
  /// A framer-rejected oversized line: consumes an ordering slot and
  /// answers it locally with the parser's exact envelope.
  void EmitOversized(Conn* conn, size_t line_bytes);
  void FlushReadySlots(Conn* conn);
  void WriteOut(Conn* conn);
  bool FinishedWith(const Conn& conn) const;
  void CloseConn(Conn* conn);
  void UpdateEpollInterest(Conn* conn);
  bool WantsRead(const Conn& conn) const;
  /// A file-backed (non-epollable) input that could make progress now.
  bool FileConnRunnable() const;
  void TriggerDrain();

  serve::Server* server_;
  NetOptions options_;
  /// Framing cap: the server's ServeOptions::max_request_bytes, the cap
  /// ParseRequest enforces. A longer line is answered with the same
  /// `oversized` envelope the parser would emit, and its bytes are
  /// discarded as they arrive — the server never buffers more than ~this
  /// per connection, no matter how the line is split across reads.
  const size_t max_request_bytes_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool draining_ = false;
  bool pumped_drain_ = false;  ///< Drain-start pump-all happened.
  bool loop_finished_ = false;
  std::chrono::steady_clock::time_point drain_start_;
  std::thread::id loop_thread_;
  std::thread background_;
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_called_{false};

  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  int64_t total_lines_ = 0;  ///< Across connections; drives drain_after.

  std::mutex completions_mu_;
  std::vector<Completion> completions_;
  /// Loop-thread scratch: completions being applied this iteration.
  std::vector<Completion> ready_;

  mutable std::mutex stats_mu_;
  NetStats stats_;

  // net.* metric handles (null without a registry).
  obs::Counter* m_accepted_ = nullptr;
  obs::Counter* m_closed_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
  obs::Gauge* m_live_ = nullptr;
  obs::Counter* m_bytes_in_ = nullptr;
  obs::Counter* m_bytes_out_ = nullptr;
  obs::Counter* m_lines_in_ = nullptr;
  obs::Counter* m_responses_out_ = nullptr;
  obs::Counter* m_oversized_ = nullptr;
  obs::Counter* m_shed_tier_[serve::kNumShedTiers] = {};
  /// Registered lazily on the first expired deadline so deadline-free
  /// runs leave the metric dump untouched (loop thread only).
  obs::Counter* m_deadline_expired_ = nullptr;
  obs::Histogram* m_drain_us_ = nullptr;
};

}  // namespace stir::net

#endif  // STIR_NET_EPOLL_SERVER_H_
