// RetryPolicy: exact backoff schedule, deterministic jitter, and the
// retryable-status classification.

#include "common/retry.h"

#include <gtest/gtest.h>

namespace stir::common {
namespace {

TEST(RetryPolicyTest, RetryableStatusClassificationIsExact) {
  // Transient transport-level failures are retryable...
  EXPECT_TRUE(RetryPolicy::IsRetryable(StatusCode::kUnavailable));
  EXPECT_TRUE(RetryPolicy::IsRetryable(StatusCode::kIOError));
  // ...everything else is not.
  EXPECT_FALSE(RetryPolicy::IsRetryable(StatusCode::kOk));
  EXPECT_FALSE(RetryPolicy::IsRetryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(RetryPolicy::IsRetryable(StatusCode::kNotFound));
  EXPECT_FALSE(RetryPolicy::IsRetryable(StatusCode::kAlreadyExists));
  EXPECT_FALSE(RetryPolicy::IsRetryable(StatusCode::kOutOfRange));
  EXPECT_FALSE(RetryPolicy::IsRetryable(StatusCode::kFailedPrecondition));
  EXPECT_FALSE(RetryPolicy::IsRetryable(StatusCode::kResourceExhausted));
  EXPECT_FALSE(RetryPolicy::IsRetryable(StatusCode::kInternal));
}

TEST(RetryPolicyTest, ShouldRetryHonoursAttemptBudget) {
  RetryPolicyOptions options;
  options.max_attempts = 3;
  RetryPolicy policy(options);
  Status transient = Status::Unavailable("down");
  EXPECT_TRUE(policy.ShouldRetry(transient, 1));
  EXPECT_TRUE(policy.ShouldRetry(transient, 2));
  EXPECT_FALSE(policy.ShouldRetry(transient, 3));  // budget spent
  EXPECT_FALSE(policy.ShouldRetry(Status::OK(), 1));
  EXPECT_FALSE(policy.ShouldRetry(Status::NotFound("no"), 1));
  EXPECT_FALSE(policy.ShouldRetry(Status::ResourceExhausted("quota"), 1));
}

TEST(RetryPolicyTest, ResourceExhaustedRetryIsOptIn) {
  RetryPolicyOptions options;
  options.retry_resource_exhausted = true;
  RetryPolicy policy(options);
  EXPECT_TRUE(policy.ShouldRetry(Status::ResourceExhausted("rate limit"), 1));
  EXPECT_FALSE(policy.ShouldRetry(Status::NotFound("still no"), 1));
}

TEST(RetryPolicyTest, BackoffSequenceIsExactWithoutJitter) {
  RetryPolicyOptions options;
  options.base_backoff_ms = 100;
  options.multiplier = 2.0;
  options.max_backoff_ms = 1500;
  options.jitter = 0.0;
  RetryPolicy policy(options);
  EXPECT_EQ(policy.BackoffMs(1), 100);
  EXPECT_EQ(policy.BackoffMs(2), 200);
  EXPECT_EQ(policy.BackoffMs(3), 400);
  EXPECT_EQ(policy.BackoffMs(4), 800);
  EXPECT_EQ(policy.BackoffMs(5), 1500);  // capped
  EXPECT_EQ(policy.BackoffMs(6), 1500);
}

TEST(RetryPolicyTest, JitterIsBoundedAndDeterministic) {
  RetryPolicyOptions options;
  options.base_backoff_ms = 1000;
  options.multiplier = 1.0;
  options.jitter = 0.5;
  options.seed = 11;
  RetryPolicy policy(options);
  bool saw_jitter = false;
  for (uint64_t key = 0; key < 200; ++key) {
    int64_t backoff = policy.BackoffMs(1, key);
    EXPECT_GE(backoff, 1000);
    EXPECT_LT(backoff, 1500);
    EXPECT_EQ(policy.BackoffMs(1, key), backoff);  // same key, same jitter
    saw_jitter |= backoff != 1000;
  }
  EXPECT_TRUE(saw_jitter);
  // A different seed draws a different jitter stream.
  options.seed = 12;
  RetryPolicy other(options);
  int differing = 0;
  for (uint64_t key = 0; key < 200; ++key) {
    differing += other.BackoffMs(1, key) != policy.BackoffMs(1, key);
  }
  EXPECT_GT(differing, 150);
}

}  // namespace
}  // namespace stir::common
