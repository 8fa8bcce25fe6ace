#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/json.h"

namespace stir::obs {
namespace {

TEST(CounterTest, ExactUnderEightThreads) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.events");
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kIncrementsPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(),
            static_cast<int64_t>(kThreads) * kIncrementsPerThread);
  EXPECT_EQ(registry.Snapshot().counter("test.events"),
            static_cast<int64_t>(kThreads) * kIncrementsPerThread);
}

TEST(CounterTest, RegistryReturnsStablePointer) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("stable");
  first->Increment(7);
  EXPECT_EQ(registry.GetCounter("stable"), first);
  EXPECT_EQ(registry.GetCounter("stable")->value(), 7);
}

TEST(CounterTest, KindClashReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("name"), nullptr);
  EXPECT_EQ(registry.GetGauge("name"), nullptr);
  EXPECT_EQ(registry.GetHistogram("name", {1, 2}), nullptr);
}

TEST(GaugeTest, SetAddAndHighWaterMark) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("depth");
  gauge->Set(10);
  gauge->Add(-3);
  EXPECT_EQ(gauge->value(), 7);
  Gauge* high = registry.GetGauge("depth.max");
  high->SetMax(5);
  high->SetMax(12);
  high->SetMax(9);  // Lower candidate must not regress the mark.
  EXPECT_EQ(high->value(), 12);
}

TEST(HistogramTest, BucketBoundariesAreInclusive) {
  MetricsRegistry registry;
  // Buckets: <=10, <=100, <=1000, overflow.
  Histogram* histogram = registry.GetHistogram("lat", {10, 100, 1000});
  histogram->Record(0);
  histogram->Record(10);    // On the bound -> first bucket (v <= bound).
  histogram->Record(11);    // Just past -> second bucket.
  histogram->Record(100);
  histogram->Record(1000);
  histogram->Record(1001);  // Overflow bucket.
  EXPECT_EQ(histogram->bucket(0), 2);
  EXPECT_EQ(histogram->bucket(1), 2);
  EXPECT_EQ(histogram->bucket(2), 1);
  EXPECT_EQ(histogram->bucket(3), 1);
  EXPECT_EQ(histogram->count(), 6);
  EXPECT_EQ(histogram->sum(), 0 + 10 + 11 + 100 + 1000 + 1001);
}

TEST(HistogramTest, ExactUnderConcurrentRecords) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("conc", {4});
  constexpr int kThreads = 8;
  constexpr int kSamplesPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram] {
      for (int i = 0; i < kSamplesPerThread; ++i) {
        histogram->Record(i % 10);  // Half <= 4, half > 4.
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  constexpr int64_t kTotal =
      static_cast<int64_t>(kThreads) * kSamplesPerThread;
  EXPECT_EQ(histogram->count(), kTotal);
  EXPECT_EQ(histogram->bucket(0), kTotal / 2);
  EXPECT_EQ(histogram->bucket(1), kTotal / 2);
}

TEST(HistogramTest, BadBoundsReturnNull) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetHistogram("empty", {}), nullptr);
  EXPECT_EQ(registry.GetHistogram("unsorted", {5, 3}), nullptr);
  EXPECT_EQ(registry.GetHistogram("dup", {3, 3}), nullptr);
}

TEST(HistogramTest, ReRegistrationKeepsOriginalBounds) {
  MetricsRegistry registry;
  Histogram* first = registry.GetHistogram("h", {1, 2, 3});
  Histogram* again = registry.GetHistogram("h", {100, 200});
  EXPECT_EQ(again, first);
  EXPECT_EQ(again->bounds(), (std::vector<int64_t>{1, 2, 3}));
}

TEST(NullHelpersTest, TolerateNullSinks) {
  IncrementCounter(nullptr);
  IncrementCounter(nullptr, 42);
  RecordSample(nullptr, 7);  // Must not crash.
}

TEST(SnapshotTest, OrderedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b.count")->Increment(2);
  registry.GetCounter("a.count")->Increment(1);
  registry.GetGauge("depth")->Set(5);
  registry.GetHistogram("lat", {10, 20})->Record(15);

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_FALSE(snapshot.empty());
  EXPECT_EQ(snapshot.counter("a.count"), 1);
  EXPECT_EQ(snapshot.counter("b.count"), 2);
  EXPECT_EQ(snapshot.counter("absent"), 0);
  EXPECT_EQ(snapshot.gauge("depth"), 5);
  ASSERT_EQ(snapshot.histograms.count("lat"), 1u);
  const MetricsSnapshot::HistogramData& data = snapshot.histograms.at("lat");
  EXPECT_EQ(data.counts, (std::vector<int64_t>{0, 1, 0}));
  EXPECT_EQ(data.count, 1);
  EXPECT_EQ(data.sum, 15);
  // std::map iteration gives name-sorted JSON -> deterministic export.
  std::string json = snapshot.ToJson();
  EXPECT_LT(json.find("a.count"), json.find("b.count"));
}

TEST(SnapshotTest, JsonIsWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("with \"quotes\" and \\slashes\\")->Increment();
  registry.GetGauge("g")->Set(-3);
  registry.GetHistogram("h", {1, 10, 100})->Record(12);
  std::string json = registry.Snapshot().ToJson();
  std::string error;
  EXPECT_TRUE(JsonIsValid(json, &error)) << error << "\n" << json;
  std::string empty_json = MetricsRegistry().Snapshot().ToJson();
  EXPECT_TRUE(JsonIsValid(empty_json, &error)) << error;
}

TEST(JsonLintTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonIsValid("{}"));
  EXPECT_TRUE(JsonIsValid("[1, 2.5, -3e2, \"x\", true, false, null]"));
  EXPECT_TRUE(JsonIsValid("{\"a\": {\"b\": [\"\\u00e9\\n\"]}}"));
  EXPECT_FALSE(JsonIsValid(""));
  EXPECT_FALSE(JsonIsValid("{"));
  EXPECT_FALSE(JsonIsValid("{\"a\": 1,}"));
  EXPECT_FALSE(JsonIsValid("[1 2]"));
  EXPECT_FALSE(JsonIsValid("01"));
  EXPECT_FALSE(JsonIsValid("\"unterminated"));
  EXPECT_FALSE(JsonIsValid("{} trailing"));
  // JsonIsValid accepts exactly what JsonParse accepts: duplicate keys
  // and lone surrogate escapes fail.
  EXPECT_FALSE(JsonIsValid("{\"a\": 1, \"a\": 2}"));
  EXPECT_FALSE(JsonIsValid("\"\\ud800\""));
  EXPECT_FALSE(JsonIsValid("\"\\udc00\""));
  EXPECT_TRUE(JsonIsValid("\"\\ud83d\\ude00\""));
}

}  // namespace
}  // namespace stir::obs
