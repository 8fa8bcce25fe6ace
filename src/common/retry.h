#ifndef STIR_COMMON_RETRY_H_
#define STIR_COMMON_RETRY_H_

#include <cstdint>

#include "common/status.h"

namespace stir::common {

/// Knobs for retrying a fallible service call. Backoff is *simulated*
/// (accounted in milliseconds, never slept), keeping faulty runs exactly
/// reproducible and fast; jitter is derived from (seed, attempt, key) so
/// the schedule is deterministic under any thread count.
struct RetryPolicyOptions {
  /// Total attempts including the first; 1 disables retries.
  int max_attempts = 3;
  /// Backoff before retry k (1-based) is base * multiplier^(k-1), capped.
  int64_t base_backoff_ms = 100;
  double multiplier = 2.0;
  int64_t max_backoff_ms = 10'000;
  /// Adds up to `jitter` fraction of the capped backoff, deterministically
  /// per (seed, attempt, key). 0 disables.
  double jitter = 0.1;
  uint64_t seed = 0;
  /// Whether ResourceExhausted counts as retryable. Off by default: a
  /// spent quota will not recover within a retry loop, unlike a rate
  /// limit window.
  bool retry_resource_exhausted = false;
};

/// Retryable-status classification + deterministic backoff schedule.
/// Stateless and cheap to copy; safe to share across threads.
class RetryPolicy {
 public:
  explicit RetryPolicy(RetryPolicyOptions options = {});

  /// Transient-failure classification: Unavailable and IOError are
  /// retryable; everything else (bad input, missing data, spent quota,
  /// logic errors) is not.
  static bool IsRetryable(StatusCode code);

  /// True when a call that has already made `attempts_made` attempts and
  /// just failed with `status` should try again.
  bool ShouldRetry(const Status& status, int attempts_made) const;

  /// Simulated backoff in ms before retry `attempt` (1-based), including
  /// deterministic jitter keyed on `key` (callers pass their call index).
  int64_t BackoffMs(int attempt, uint64_t key = 0) const;

  const RetryPolicyOptions& options() const { return options_; }

 private:
  RetryPolicyOptions options_;
};

}  // namespace stir::common

#endif  // STIR_COMMON_RETRY_H_
