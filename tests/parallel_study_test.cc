// Equivalence and concurrency tests for the sharded parallel study
// pipeline: parallel runs must be bit-identical to serial, and the shared
// ReverseGeocoder must keep its counters and quota exact under contention.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/study.h"
#include "geo/reverse_geocoder.h"
#include "obs/metrics.h"
#include "twitter/generator.h"

namespace stir::core {
namespace {

class ParallelStudyTest : public ::testing::Test {
 protected:
  ParallelStudyTest() : db_(geo::AdminDb::KoreanDistricts()) {}

  twitter::GeneratedData Generate(double scale) {
    twitter::DatasetGenerator generator(
        &db_, twitter::DatasetGenerator::KoreanConfig(scale));
    return generator.Generate();
  }

  StudyResult RunWithThreads(const twitter::Dataset& dataset, int threads) {
    StudyConfig options;
    options.threads = threads;
    CorrelationStudy study(&db_, options);
    return study.Run(dataset);
  }

  const geo::AdminDb& db_;
};

void ExpectIdenticalResults(const StudyResult& serial,
                            const StudyResult& parallel, int threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  // Rendered reports must match byte for byte.
  EXPECT_EQ(serial.FunnelString(), parallel.FunnelString());
  EXPECT_EQ(serial.GroupTableString(), parallel.GroupTableString());

  // Funnel counters.
  EXPECT_EQ(serial.funnel.crawled_users, parallel.funnel.crawled_users);
  for (int q = 0; q < 5; ++q) {
    EXPECT_EQ(serial.funnel.quality_counts[q],
              parallel.funnel.quality_counts[q]);
  }
  EXPECT_EQ(serial.funnel.well_defined_users,
            parallel.funnel.well_defined_users);
  EXPECT_EQ(serial.funnel.total_tweets, parallel.funnel.total_tweets);
  EXPECT_EQ(serial.funnel.gps_tweets, parallel.funnel.gps_tweets);
  EXPECT_EQ(serial.funnel.geocode_failures, parallel.funnel.geocode_failures);
  EXPECT_EQ(serial.funnel.final_users, parallel.funnel.final_users);

  // Group table.
  for (int g = 0; g < kNumTopKGroups; ++g) {
    EXPECT_EQ(serial.groups[g].users, parallel.groups[g].users);
    EXPECT_EQ(serial.groups[g].gps_tweets, parallel.groups[g].gps_tweets);
    EXPECT_DOUBLE_EQ(serial.groups[g].user_share,
                     parallel.groups[g].user_share);
    EXPECT_DOUBLE_EQ(serial.groups[g].tweet_share,
                     parallel.groups[g].tweet_share);
    EXPECT_DOUBLE_EQ(serial.groups[g].avg_tweet_locations,
                     parallel.groups[g].avg_tweet_locations);
  }
  EXPECT_DOUBLE_EQ(serial.overall_avg_locations,
                   parallel.overall_avg_locations);

  // Refined users: same order, same tweet regions.
  ASSERT_EQ(serial.refined.size(), parallel.refined.size());
  for (size_t i = 0; i < serial.refined.size(); ++i) {
    EXPECT_EQ(serial.refined[i].user, parallel.refined[i].user);
    EXPECT_EQ(serial.refined[i].profile_region,
              parallel.refined[i].profile_region);
    EXPECT_EQ(serial.refined[i].tweet_regions,
              parallel.refined[i].tweet_regions);
  }

  // Per-user groupings: same order, ranks, and Table II rows.
  ASSERT_EQ(serial.groupings.size(), parallel.groupings.size());
  for (size_t i = 0; i < serial.groupings.size(); ++i) {
    const UserGrouping& a = serial.groupings[i];
    const UserGrouping& b = parallel.groupings[i];
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.match_rank, b.match_rank);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.gps_tweet_count, b.gps_tweet_count);
    EXPECT_EQ(a.matched_tweet_count, b.matched_tweet_count);
    EXPECT_EQ(a.profile_name_key, b.profile_name_key);
    ASSERT_EQ(a.ordered.size(), b.ordered.size());
    for (size_t j = 0; j < a.ordered.size(); ++j) {
      EXPECT_EQ(a.ordered[j].count, b.ordered[j].count);
      EXPECT_EQ(a.ordered[j].name_key, b.ordered[j].name_key);
    }
  }
}

TEST_F(ParallelStudyTest, GoldenEquivalenceAcrossThreadCounts) {
  twitter::GeneratedData data = Generate(0.05);
  StudyResult serial = RunWithThreads(data.dataset, 1);
  ASSERT_GT(serial.final_users, 0);
  for (int threads : {2, 8}) {
    StudyResult parallel = RunWithThreads(data.dataset, threads);
    ExpectIdenticalResults(serial, parallel, threads);
  }
}

// A faulty run — transient errors, retries, degraded-mode salvage — must
// stay bit-identical across thread counts: the fault schedule is keyed on
// the tweet's dataset index, not on arrival order.
TEST_F(ParallelStudyTest, FaultyRunsAreBitIdenticalAcrossThreadCounts) {
  twitter::GeneratedData data = Generate(0.05);
  StudyConfig options;
  options.fault.error_rate = 0.25;
  options.fault.seed = 13;
  options.retry.max_attempts = 2;

  CorrelationStudy serial_study(&db_, options);
  StudyResult serial = serial_study.Run(data.dataset);
  ASSERT_GT(serial.final_users, 0);
  // The run really was faulty.
  EXPECT_TRUE(serial.funnel.fault_injection_enabled);
  EXPECT_GT(serial.funnel.geocode_faulted, 0);
  EXPECT_GT(serial.funnel.geocode_retried, 0);
  EXPECT_GT(serial.funnel.backoff_ms, 0);

  for (int threads : {2, 8}) {
    options.threads = threads;
    CorrelationStudy parallel_study(&db_, options);
    StudyResult parallel = parallel_study.Run(data.dataset);
    ExpectIdenticalResults(serial, parallel, threads);
    // The fault/retry/degradation accounting is part of the guarantee.
    EXPECT_EQ(serial.funnel.geocode_faulted, parallel.funnel.geocode_faulted);
    EXPECT_EQ(serial.funnel.geocode_retried, parallel.funnel.geocode_retried);
    EXPECT_EQ(serial.funnel.geocode_degraded,
              parallel.funnel.geocode_degraded);
    EXPECT_EQ(serial.funnel.backoff_ms, parallel.funnel.backoff_ms);
  }
}

TEST_F(ParallelStudyTest, FaithfulXmlPipelineIsAlsoEquivalent) {
  twitter::GeneratedData data = Generate(0.02);
  StudyConfig options;
  options.refinement.faithful_xml_pipeline = true;
  CorrelationStudy serial_study(&db_, options);
  StudyResult serial = serial_study.Run(data.dataset);
  options.threads = 4;
  CorrelationStudy parallel_study(&db_, options);
  StudyResult parallel = parallel_study.Run(data.dataset);
  ExpectIdenticalResults(serial, parallel, 4);
}

TEST_F(ParallelStudyTest, GroupUsersParallelMatchesSerial) {
  twitter::GeneratedData data = Generate(0.05);
  CorrelationStudy study(&db_);
  StudyResult result = study.Run(data.dataset);
  ASSERT_FALSE(result.refined.empty());
  common::ThreadPool pool(8);
  std::vector<UserGrouping> serial =
      GroupUsers(result.refined, db_, TieBreak::kLexicographic);
  std::vector<UserGrouping> parallel =
      GroupUsers(result.refined, db_, TieBreak::kLexicographic, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].user, parallel[i].user);
    EXPECT_EQ(serial[i].match_rank, parallel[i].match_rank);
    EXPECT_EQ(serial[i].group, parallel[i].group);
  }
}

// Hammers one shared geocoder from many threads: every lookup must
// succeed with the right region, and the hit/miss accounting must balance
// exactly once the threads join.
TEST_F(ParallelStudyTest, GeocoderCounterTotalsSurviveContention) {
  obs::MetricsRegistry metrics;
  geo::ReverseGeocoderOptions options;
  options.metrics = &metrics;
  geo::ReverseGeocoder geocoder(&db_, options);
  constexpr int kThreads = 8;
  constexpr int kLookupsPerThread = 2000;

  // A fixed point set spanning distinct districts (distinct geohash cells).
  Rng rng(99);
  std::vector<std::pair<geo::RegionId, geo::LatLng>> points;
  size_t num_regions = std::min<size_t>(db_.size(), 32);
  for (size_t r = 0; r < num_regions; ++r) {
    auto id = static_cast<geo::RegionId>(r);
    points.emplace_back(id, db_.SamplePointIn(id, rng));
  }

  std::atomic<int64_t> ok{0}, wrong_region{0}, failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kLookupsPerThread; ++i) {
        const auto& [region, point] = points[(t + i) % points.size()];
        auto result = geocoder.Reverse(point);
        if (!result.ok()) {
          ++failed;
        } else if (result->region != region) {
          ++wrong_region;
        } else {
          ++ok;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong_region.load(), 0);
  EXPECT_EQ(ok.load(), int64_t{kThreads} * kLookupsPerThread);
  const int64_t queries = metrics.GetCounter("geocode.queries")->value();
  EXPECT_EQ(queries, int64_t{kThreads} * kLookupsPerThread);
  // Each distinct cell misses at least once; racing first lookups can miss
  // a few extra times, never more than once per thread per cell.
  int64_t misses =
      queries - metrics.GetCounter("geocode.cache_hits")->value();
  EXPECT_GE(misses, static_cast<int64_t>(points.size()));
  EXPECT_LE(misses, static_cast<int64_t>(points.size()) * kThreads);
}

// With the cache off, a finite quota must be spent exactly — no
// overshoot, no lost grants — no matter how many threads race for it.
TEST_F(ParallelStudyTest, QuotaEnforcedExactlyUnderContention) {
  geo::ReverseGeocoderOptions options;
  options.enable_cache = false;
  options.quota = 500;
  geo::ReverseGeocoder geocoder(&db_, options);
  constexpr int kThreads = 8;
  constexpr int kLookupsPerThread = 200;  // 1600 attempts for 500 grants

  Rng rng(7);
  geo::LatLng point = db_.SamplePointIn(0, rng);
  std::atomic<int64_t> granted{0}, exhausted{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kLookupsPerThread; ++i) {
        auto result = geocoder.Reverse(point);
        if (result.ok()) {
          ++granted;
        } else if (result.status().code() == StatusCode::kResourceExhausted) {
          ++exhausted;
        } else {
          ++other;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(granted.load(), options.quota);
  EXPECT_EQ(exhausted.load(),
            int64_t{kThreads} * kLookupsPerThread - options.quota);
  EXPECT_EQ(geocoder.quota_remaining(), 0);
  geocoder.ResetQuota();
  EXPECT_EQ(geocoder.quota_remaining(), options.quota);
  EXPECT_TRUE(geocoder.Reverse(point).ok());
}

}  // namespace
}  // namespace stir::core
