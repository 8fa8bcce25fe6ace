#ifndef STIR_SERVE_OPTIONS_H_
#define STIR_SERVE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "common/fault.h"
#include "infer/home_inferrer.h"
#include "obs/metrics.h"

namespace stir::infer {
class InferenceIndex;
}

namespace stir::serve {

class StreamBackend;

/// Knobs for the query-serving layer (DESIGN.md §10). The defaults give a
/// small multi-threaded server with micro-batching on and a bounded
/// admission queue; every pointer is optional and not owned.
struct ServeOptions {
  /// Worker threads executing request batches; >= 1. The scheduler runs
  /// at most `workers` batches concurrently on its common::ThreadPool.
  int workers = 4;
  /// Requests coalesced into one batch (>= 1). 1 disables micro-batching:
  /// every request runs as its own pool task.
  int max_batch_size = 16;
  /// How long a worker lingers for more requests before running a partial
  /// batch, in microseconds of wall time. 0 — the default, and the only
  /// setting the deterministic tests use — runs whatever is queued
  /// immediately; latency-tolerant deployments trade up to this long per
  /// batch for fuller batches.
  int64_t batch_linger_us = 0;
  /// Bounded admission queue. A request arriving while `queue_capacity`
  /// requests are already pending is rejected immediately with an
  /// `overloaded` error response — explicit backpressure, never a hang.
  int queue_capacity = 1024;
  /// Requests longer than this many bytes (the raw line) are rejected
  /// with an `oversized` error without being parsed.
  size_t max_request_bytes = 64 * 1024;

  /// Server-side deadline, in ms from admission, applied to requests
  /// that carry no "deadline_ms" of their own. A request whose deadline
  /// has expired by the time a worker dispatches its batch is answered
  /// with the retryable `deadline_exceeded` envelope instead of being
  /// executed late (the client has given up; the work is pure waste).
  /// 0 — the default — imposes none, and with no per-request deadlines
  /// either, the deadline path is completely inert: no clocks read, no
  /// metrics registered, responses byte-identical to a deadline-free
  /// build.
  int64_t default_deadline_ms = 0;

  /// Degraded-data mode for a server whose backing corpus failed
  /// verification (CRC mismatch / SIGBUS at load). Data-plane methods
  /// (lookup_*, topk_summary, append_tweets) are answered at admission
  /// with the retryable `data_corrupt` envelope; the control plane
  /// (server_stats, index_info) keeps working so an operator can
  /// diagnose the outage. Off by default: a healthy server never emits
  /// `data_corrupt`.
  bool degraded_data = false;

  /// Tiered admission control (DESIGN.md §13). Each shed tier may fill
  /// the admission queue only up to `queue_capacity * limit`: once the
  /// queue is fuller than a tier's limit, requests of that tier are
  /// rejected with the retryable `overloaded` envelope while
  /// higher-value tiers keep getting through. Tier 0 (`server_stats`)
  /// always has the full queue; 1.0 — the default — collapses the tiers
  /// back into the single blanket cutoff at `queue_capacity`.
  /// Invariant enforced at construction:
  /// tier3 <= tier2 <= infer <= 1.
  double infer_fill_limit = 1.0;  ///< infer_user (shed tier 1).
  double tier1_fill_limit = 1.0;  ///< lookup_* / topk_summary / index_info
                                  ///< (shed tier 2; name predates infer).
  double tier2_fill_limit = 1.0;  ///< append_tweets (shed tier 3).

  /// Metrics sink (not owned). Populates the `serve.*` namespace:
  /// counters `serve.requests.received/admitted/parse_errors`,
  /// `serve.rejected.overload/shutdown`, `serve.responses`,
  /// `serve.method.<name>`, `serve.faults_injected`; gauges
  /// `serve.queue_depth` / `serve.queue_depth_max`; histograms
  /// `serve.batch_size` and `serve.latency_us` (admission to response,
  /// wall time).
  obs::MetricsRegistry* metrics = nullptr;

  /// Fault hook on the request handlers (not owned). Decisions are keyed
  /// on the request's admission sequence number, so a fixed single-client
  /// stream sees identical fault placement under any worker count. An
  /// injected fault yields an `unavailable` error response; clients
  /// should treat it exactly like `overloaded` — retryable with
  /// common::RetryPolicy backoff (DESIGN.md §10 documents the contract).
  common::FaultInjector* fault_injector = nullptr;

  /// Streaming ingest hook (not owned; null on a batch server). When set,
  /// append_tweets requests are forwarded to it at admission — after all
  /// previously admitted requests have executed — and the backend may
  /// swap new index generations into the scheduler (DESIGN.md §12).
  /// Without it, append_tweets fails with `bad_request`.
  StreamBackend* stream = nullptr;

  /// Evidence index for infer_user (not owned; null disables inference —
  /// infer_user then answers `bad_request`). A streaming backend may
  /// swap newer generations in via RequestScheduler::SwapInferIndex.
  /// Adds `infer.requests/decided/abstained/not_found` counters to the
  /// metrics namespace when serving.
  const infer::InferenceIndex* infer_index = nullptr;
  /// Strategy knobs for infer_user (default strategy, night weight,
  /// abstain threshold).
  infer::InferParams infer;
};

}  // namespace stir::serve

#endif  // STIR_SERVE_OPTIONS_H_
