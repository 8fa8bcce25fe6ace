#include "twitter/api.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/string_util.h"

namespace stir::twitter {
namespace {

Dataset SmallDataset() {
  Dataset dataset;
  for (UserId u = 1; u <= 3; ++u) {
    User user;
    user.id = u;
    user.handle = StrFormat("u%lld", static_cast<long long>(u));
    user.total_tweets = 10;
    dataset.AddUser(user);
  }
  auto add = [&](TweetId id, UserId user, SimTime time, std::string text) {
    Tweet tweet;
    tweet.id = id;
    tweet.user = user;
    tweet.time = time;
    tweet.text = std::move(text);
    dataset.AddTweet(tweet);
  };
  add(1, 1, 100, "I love Lady Gaga");
  add(2, 2, 200, "lunch time");
  add(3, 3, 300, "LADY GAGA concert tonight");
  add(4, 1, 400, "earthquake!! shaking here");
  add(5, 2, 500, "lady gaga again");
  return dataset;
}

TEST(SearchApiTest, KeywordFilterNewestFirst) {
  Dataset dataset = SmallDataset();
  SearchApi api(&dataset);
  SearchQuery query;
  query.keyword = "lady gaga";
  auto results = api.Search(query);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[0]->id, 5);  // newest first
  EXPECT_EQ((*results)[1]->id, 3);
  EXPECT_EQ((*results)[2]->id, 1);
}

TEST(SearchApiTest, MaxResultsCap) {
  Dataset dataset = SmallDataset();
  SearchApi api(&dataset);
  SearchQuery query;
  query.max_results = 2;
  auto results = api.Search(query);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 2u);
  query.max_results = 0;
  EXPECT_TRUE(api.Search(query).status().IsInvalidArgument());
}

TEST(SearchApiTest, TimeWindow) {
  Dataset dataset = SmallDataset();
  SearchApi api(&dataset);
  SearchQuery query;
  query.since = 200;
  query.until = 401;
  auto results = api.Search(query);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);  // ids 2, 3, 4
  for (const Tweet* tweet : *results) {
    EXPECT_GE(tweet->time, 200);
    EXPECT_LT(tweet->time, 401);
  }
}

TEST(SearchApiTest, QuotaExhaustion) {
  Dataset dataset = SmallDataset();
  SearchApi api(&dataset, /*quota=*/2);
  SearchQuery query;
  EXPECT_TRUE(api.Search(query).ok());
  EXPECT_TRUE(api.Search(query).ok());
  EXPECT_TRUE(api.Search(query).status().IsResourceExhausted());
  EXPECT_EQ(api.requests_made(), 2);
}

// The quota is spent through a CAS loop: racing threads must never
// overspend it or lose a grant, and only granted attempts may count as
// requests made.
TEST(SearchApiTest, QuotaExactUnderConcurrency) {
  Dataset dataset = SmallDataset();
  SearchApiOptions options;
  options.quota = 50;
  SearchApi api(&dataset, options);
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 20;  // 160 attempts for 50 grants

  std::atomic<int64_t> granted{0}, exhausted{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      SearchQuery query;
      for (int i = 0; i < kCallsPerThread; ++i) {
        auto result = api.Search(query);
        if (result.ok()) {
          ++granted;
        } else if (result.status().IsResourceExhausted()) {
          ++exhausted;
        } else {
          ++other;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(granted.load(), 50);
  EXPECT_EQ(exhausted.load(), int64_t{kThreads} * kCallsPerThread - 50);
  EXPECT_EQ(api.requests_made(), 50);
}

// A permanent fault burns the whole retry budget: one terminal failure,
// max_attempts - 1 retries, and every attempt drawn from the injector —
// without ever charging the endpoint.
TEST(SearchApiTest, RetryAccountingOnPermanentFault) {
  Dataset dataset = SmallDataset();
  common::FaultInjectorOptions fault_options;
  fault_options.error_rate = 1.0;
  common::FaultInjector injector(fault_options);
  SearchApiOptions options;
  options.fault_injector = &injector;
  options.retry.max_attempts = 3;
  SearchApi api(&dataset, options);

  SearchQuery query;
  auto result = api.Search(query);
  EXPECT_TRUE(result.status().IsUnavailable());
  EXPECT_EQ(api.num_faulted(), 1);
  EXPECT_EQ(api.num_retries(), 2);
  EXPECT_EQ(injector.faults_injected(), 3);  // one draw per attempt
  EXPECT_EQ(api.requests_made(), 0);  // never reached the endpoint
  EXPECT_GT(api.simulated_backoff_ms(), 0);
}

// At a partial error rate the retry loop recovers some requests; across
// many calls the accounting must balance exactly: every injected fault is
// either retried past or terminal.
TEST(SearchApiTest, RetryAccountingBalancesAtPartialErrorRate) {
  Dataset dataset = SmallDataset();
  common::FaultInjectorOptions fault_options;
  fault_options.error_rate = 0.5;
  fault_options.seed = 21;
  common::FaultInjector injector(fault_options);
  SearchApiOptions options;
  options.fault_injector = &injector;
  options.retry.max_attempts = 3;
  SearchApi api(&dataset, options);

  SearchQuery query;
  int64_t ok = 0, unavailable = 0;
  for (int i = 0; i < 200; ++i) {
    auto result = api.Search(query);
    if (result.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(result.status().IsUnavailable());
      ++unavailable;
    }
  }
  EXPECT_GT(ok, 0);           // retries recover most calls at p=0.5
  EXPECT_GT(unavailable, 0);  // but 0.5^3 of them still die
  EXPECT_GT(api.num_retries(), 0);
  EXPECT_EQ(api.num_faulted(), unavailable);
  EXPECT_EQ(injector.faults_injected(), api.num_retries() + api.num_faulted());
  EXPECT_EQ(api.requests_made(), ok);
}

// Streaming drops are silent but tallied: delivered plus dropped must
// equal the matching total, and the drop schedule replays identically.
TEST(StreamingApiTest, DropAccountingBalancesAndReplays) {
  Dataset dataset;
  User user;
  user.id = 1;
  user.total_tweets = 1;
  dataset.AddUser(user);
  for (TweetId i = 0; i < 2000; ++i) {
    Tweet tweet;
    tweet.id = i;
    tweet.user = 1;
    tweet.time = i;
    tweet.text = "x";
    dataset.AddTweet(tweet);
  }
  common::FaultInjectorOptions fault_options;
  fault_options.error_rate = 0.3;
  fault_options.seed = 5;
  common::FaultInjector injector(fault_options);
  StreamingApi api(&dataset, &injector);

  std::vector<TweetId> first;
  int64_t delivered = api.Filter("", [&](const Tweet& tweet) {
    first.push_back(tweet.id);
  });
  EXPECT_GT(delivered, 0);
  EXPECT_GT(api.deliveries_dropped(), 0);
  EXPECT_EQ(delivered + api.deliveries_dropped(), 2000);

  // Same injector, same stream: the replay drops the same tweets.
  int64_t dropped_before = api.deliveries_dropped();
  std::vector<TweetId> second;
  int64_t replayed = api.Filter("", [&](const Tweet& tweet) {
    second.push_back(tweet.id);
  });
  EXPECT_EQ(replayed, delivered);
  EXPECT_EQ(second, first);
  EXPECT_EQ(api.deliveries_dropped(), 2 * dropped_before);
}

TEST(StreamingApiTest, FilterDeliversInTimeOrder) {
  Dataset dataset = SmallDataset();
  StreamingApi api(&dataset);
  std::vector<TweetId> seen;
  int64_t count = api.Filter("lady gaga", [&](const Tweet& tweet) {
    seen.push_back(tweet.id);
  });
  EXPECT_EQ(count, 3);
  EXPECT_EQ(seen, (std::vector<TweetId>{1, 3, 5}));
}

TEST(StreamingApiTest, EmptyKeywordDeliversEverything) {
  Dataset dataset = SmallDataset();
  StreamingApi api(&dataset);
  int64_t count = api.Filter("", [](const Tweet&) {});
  EXPECT_EQ(count, 5);
}

TEST(StreamingApiTest, SampleRateApproximatelyHonored) {
  Dataset dataset;
  User user;
  user.id = 1;
  user.total_tweets = 1;
  dataset.AddUser(user);
  for (TweetId i = 0; i < 5000; ++i) {
    Tweet tweet;
    tweet.id = i;
    tweet.user = 1;
    tweet.time = i;
    tweet.text = "x";
    dataset.AddTweet(tweet);
  }
  StreamingApi api(&dataset);
  Rng rng(1);
  int64_t count = api.Sample(0.1, rng, [](const Tweet&) {});
  EXPECT_NEAR(static_cast<double>(count), 500.0, 75.0);
}

}  // namespace
}  // namespace stir::twitter
