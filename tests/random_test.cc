#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "stats/correlation.h"

namespace stir {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  bool any_diff = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) any_diff |= (a2.Next() != c.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(2);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 6000; ++i) ++counts[rng.UniformInt(1, 6)];
  ASSERT_EQ(counts.size(), 6u);  // all faces seen
  for (const auto& [face, count] : counts) {
    EXPECT_GE(face, 1);
    EXPECT_LE(face, 6);
    EXPECT_GT(count, 700);  // ~1000 each; catches gross bias
    EXPECT_LT(count, 1300);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.UniformInt(7, 7), 7);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(5);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.15);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.15);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(RngTest, PoissonMeanMatchesLambdaSmallAndLarge) {
  Rng rng(7);
  for (double lambda : {0.5, 4.0, 32.0, 200.0}) {
    double sum = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.Poisson(lambda));
    }
    EXPECT_NEAR(sum / n, lambda, lambda * 0.1 + 0.1) << "lambda=" << lambda;
  }
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(9);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(1);  // same salt, later state -> different
  bool differ = false;
  for (int i = 0; i < 20; ++i) differ |= (child1.Next() != child2.Next());
  EXPECT_TRUE(differ);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(10);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(ZipfDistributionTest, MonotonicallyDecreasingFrequencies) {
  Rng rng(11);
  ZipfDistribution dist(10, 1.0);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 50000; ++i) {
    int64_t k = dist.Sample(rng);
    ASSERT_GE(k, 1);
    ASSERT_LE(k, 10);
    ++counts[static_cast<size_t>(k)];
  }
  // P(1) ~ 2x P(2); allow slack.
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[4]);
  EXPECT_GT(counts[1], counts[10] * 5);
}

TEST(DiscreteDistributionTest, MatchesWeights) {
  Rng rng(12);
  DiscreteDistribution dist({1.0, 0.0, 3.0});
  EXPECT_DOUBLE_EQ(dist.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(dist.probability(1), 0.0);
  EXPECT_DOUBLE_EQ(dist.probability(2), 0.75);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[dist.Sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / 40000.0, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 40000.0, 0.75, 0.02);
}

TEST(DiscreteDistributionTest, AllZeroWeightsDegradeToUniform) {
  Rng rng(13);
  DiscreteDistribution dist({0.0, 0.0});
  int count0 = 0;
  for (int i = 0; i < 10000; ++i) count0 += (dist.Sample(rng) == 0);
  EXPECT_NEAR(count0 / 10000.0, 0.5, 0.05);
}

TEST(RngTest, UniformIntPassesChiSquareUniformity) {
  // Dogfooding: test the generator with the library's own chi-square.
  Rng rng(20120401);
  const int k = 12;
  const int n = 120000;
  std::vector<double> observed(k, 0.0);
  for (int i = 0; i < n; ++i) {
    observed[static_cast<size_t>(rng.UniformInt(0, k - 1))] += 1.0;
  }
  std::vector<double> expected(k, static_cast<double>(n) / k);
  auto stat = stir::stats::ChiSquareStatistic(observed, expected);
  ASSERT_TRUE(stat.ok());
  // df = 11; 99.9th percentile ~ 31.3. A correct generator fails this
  // one seed in a thousand; the seed is fixed, so the test is stable.
  EXPECT_LT(*stat, 31.3);
}

/// UniformInt's rejection rule as it was before the early accept: work
/// out the limit on every draw, redraw above it. Returns the offset
/// from lo.
uint64_t ReferenceUniformOffset(Rng& rng, uint64_t range) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t limit = kMax - (kMax % range + 1) % range;
  uint64_t draw;
  do {
    draw = rng.Next();
  } while (draw > limit && limit != kMax);
  return draw % range;
}

// The early accept must change neither a value nor the number of Next()
// calls: every generated corpus depends on both.
TEST(RngTest, UniformIntMatchesTheReferenceRejectionRule) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  std::vector<uint64_t> ranges = {1,
                                  2,
                                  3,
                                  (uint64_t{1} << 32) - 1,
                                  (uint64_t{1} << 32) + 1,
                                  uint64_t{1} << 63,
                                  (uint64_t{1} << 63) + 1,
                                  kMax};
  Rng pick(77);
  for (int i = 0; i < 200; ++i) {
    // Small, 32-bit and near-2^64 ranges; the last reject often.
    const int bits = static_cast<int>(pick.UniformInt(1, 64));
    const uint64_t r = pick.Next() >> (64 - bits);
    ranges.push_back(std::max<uint64_t>(r, 1));
    ranges.push_back(kMax - (pick.Next() >> 1));
  }
  for (uint64_t range : ranges) {
    // Place [lo, hi] so both fit in int64_t for every range.
    const int64_t lo =
        range > (uint64_t{1} << 62) ? std::numeric_limits<int64_t>::min() : -3;
    const auto hi = static_cast<int64_t>(static_cast<uint64_t>(lo) + range - 1);
    Rng actual(range ^ 0x5eed);
    Rng reference(range ^ 0x5eed);
    for (int draw = 0; draw < 500; ++draw) {
      const int64_t want = static_cast<int64_t>(
          static_cast<uint64_t>(lo) + ReferenceUniformOffset(reference, range));
      ASSERT_EQ(actual.UniformInt(lo, hi), want)
          << "range " << range << " draw " << draw;
      ASSERT_EQ(actual.Next(), reference.Next())
          << "range " << range << " draw " << draw << ": streams diverged";
    }
  }
}

// Property sweep: UniformInt stays within arbitrary bounds.
class UniformIntRangeTest
    : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(UniformIntRangeTest, StaysWithinBounds) {
  auto [lo, hi] = GetParam();
  Rng rng(static_cast<uint64_t>(lo * 31 + hi));
  for (int i = 0; i < 2000; ++i) {
    int64_t x = rng.UniformInt(lo, hi);
    EXPECT_GE(x, lo);
    EXPECT_LE(x, hi);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, UniformIntRangeTest,
    ::testing::Values(std::pair<int64_t, int64_t>{0, 1},
                      std::pair<int64_t, int64_t>{-5, 5},
                      std::pair<int64_t, int64_t>{0, 1000000},
                      std::pair<int64_t, int64_t>{-1000000, -999990},
                      std::pair<int64_t, int64_t>{42, 42}));

}  // namespace
}  // namespace stir
