#ifndef STIR_TWITTER_API_H_
#define STIR_TWITTER_API_H_

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/status.h"
#include "twitter/dataset.h"

namespace stir::twitter {

/// Query for the Search-API simulation (how the "Lady Gaga" corpus was
/// assembled).
struct SearchQuery {
  /// Case-insensitive substring required in the tweet text; empty matches
  /// everything.
  std::string keyword;
  /// Result cap per call (the 2011 API paged at 100).
  int64_t max_results = 100;
  /// Half-open time window [since, until); until <= 0 means unbounded.
  SimTime since = 0;
  SimTime until = 0;
};

/// Behavioural knobs for the Search-API simulation.
struct SearchApiOptions {
  /// Maximum requests before the endpoint returns ResourceExhausted;
  /// < 0 disables accounting.
  int64_t quota = -1;
  /// Optional fault hook (not owned; must outlive the API; null or
  /// all-knobs-off disables). Consulted per request attempt, before the
  /// quota is charged — an injected failure never spends quota.
  common::FaultInjector* fault_injector = nullptr;
  /// Retry schedule for injected transient failures (simulated backoff).
  common::RetryPolicyOptions retry;
};

/// Search endpoint over a Dataset's materialized tweets: recency-ordered,
/// capped, quota-accounted.
///
/// Thread-safe: request/fault counters are atomics and the quota is spent
/// through a CAS loop, so concurrent callers can share one instance and
/// never overspend it.
class SearchApi {
 public:
  /// `dataset` must outlive the API. `quota` < 0 disables accounting.
  explicit SearchApi(const Dataset* dataset, int64_t quota = -1);
  SearchApi(const Dataset* dataset, SearchApiOptions options);

  /// Returns pointers into the dataset, newest first. ResourceExhausted
  /// once the quota is spent; Unavailable for an injected (and
  /// retried-past-budget) service fault.
  StatusOr<std::vector<const Tweet*>> Search(const SearchQuery& query);

  /// Request accounting (atomic snapshots; exact once concurrent callers
  /// have returned). Only attempts that reach the endpoint count.
  int64_t requests_made() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Retry attempts performed after an injected transient failure.
  int64_t num_retries() const {
    return num_retries_.load(std::memory_order_relaxed);
  }
  /// Requests that failed with an injected fault after exhausting retries.
  int64_t num_faulted() const {
    return num_faulted_.load(std::memory_order_relaxed);
  }
  /// Total simulated backoff charged by the retry loop, in ms.
  int64_t simulated_backoff_ms() const {
    return simulated_backoff_ms_.load(std::memory_order_relaxed);
  }

 private:
  /// The fault-free request path (quota + scan).
  StatusOr<std::vector<const Tweet*>> SearchDirect(const SearchQuery& query);

  const Dataset* dataset_;
  SearchApiOptions options_;
  common::RetryPolicy retry_policy_;
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> quota_used_{0};
  std::atomic<int64_t> num_retries_{0};
  std::atomic<int64_t> num_faulted_{0};
  std::atomic<int64_t> simulated_backoff_ms_{0};
  /// Tweet indices sorted by time descending, built once.
  std::vector<size_t> by_time_desc_;
};

/// Streaming endpoint: replays materialized tweets in time order through
/// a callback, with keyword filtering ("filter" track) and random
/// sampling ("sample"/spritzer, the public ~1% stream).
///
/// With a fault injector, each delivery is keyed on its position in the
/// time-ordered replay; a faulted delivery is silently dropped — the
/// sampling artifact Pavalanathan & Eisenstein warn about — and tallied
/// in `deliveries_dropped()`.
class StreamingApi {
 public:
  using Callback = std::function<void(const Tweet&)>;
  using IndexedCallback = std::function<void(size_t dataset_index,
                                             const Tweet&)>;

  /// `dataset` (and `fault_injector`, when given) must outlive the API.
  explicit StreamingApi(const Dataset* dataset,
                        common::FaultInjector* fault_injector = nullptr);

  /// Delivers every tweet containing `keyword` (case-insensitive);
  /// returns the number delivered.
  int64_t Filter(const std::string& keyword, const Callback& callback) const;

  /// Replays every materialized tweet in (time, id) order, delivering
  /// the tweet together with its *dataset* index: the stable,
  /// replay-order-independent fault key under which a streamed run
  /// charges the batch study's fault/retry schedule (the CLI's stream
  /// start orders corpus rows the same way). Injected stream faults
  /// still drop deliveries (keyed on replay position, like
  /// Filter/Sample).
  int64_t Replay(const IndexedCallback& callback) const;

  /// Delivers each tweet with probability `rate`; returns count.
  int64_t Sample(double rate, Rng& rng, const Callback& callback) const;

  /// Deliveries suppressed by injected faults, across all streams.
  int64_t deliveries_dropped() const {
    return deliveries_dropped_.load(std::memory_order_relaxed);
  }

 private:
  /// True when stream position `index` should deliver (counts drops).
  bool ShouldDeliver(int64_t index) const;

  const Dataset* dataset_;
  common::FaultInjector* fault_injector_;
  mutable std::atomic<int64_t> deliveries_dropped_{0};
  /// Tweet indices sorted by time ascending.
  std::vector<size_t> by_time_asc_;
};

}  // namespace stir::twitter

#endif  // STIR_TWITTER_API_H_
