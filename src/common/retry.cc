#include "common/retry.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/logging.h"

namespace stir::common {

RetryPolicy::RetryPolicy(RetryPolicyOptions options) : options_(options) {
  STIR_CHECK(options_.max_attempts >= 1);
  STIR_CHECK(options_.base_backoff_ms >= 0);
  STIR_CHECK(options_.multiplier >= 1.0);
}

bool RetryPolicy::IsRetryable(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kIOError;
}

bool RetryPolicy::ShouldRetry(const Status& status, int attempts_made) const {
  if (status.ok()) return false;
  if (attempts_made >= options_.max_attempts) return false;
  if (IsRetryable(status.code())) return true;
  return options_.retry_resource_exhausted &&
         status.code() == StatusCode::kResourceExhausted;
}

int64_t RetryPolicy::BackoffMs(int attempt, uint64_t key) const {
  STIR_CHECK(attempt >= 1);
  double backoff = static_cast<double>(options_.base_backoff_ms) *
                   std::pow(options_.multiplier, attempt - 1);
  backoff = std::min(backoff, static_cast<double>(options_.max_backoff_ms));
  int64_t backoff_ms = static_cast<int64_t>(backoff);
  if (options_.jitter > 0.0 && backoff_ms > 0) {
    uint64_t h = Mix64(options_.seed ^ 0x7C6B5A49382716F5ULL);
    h = Mix64(HashCombine(h, static_cast<uint64_t>(attempt)));
    h = Mix64(HashCombine(h, key));
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    backoff_ms += static_cast<int64_t>(static_cast<double>(backoff_ms) *
                                       options_.jitter * u);
  }
  return backoff_ms;
}

}  // namespace stir::common
