#include "core/concentration.h"

#include <gtest/gtest.h>

#include "core/study.h"
#include "twitter/generator.h"

namespace stir::core {
namespace {

UserGrouping GroupingWithCounts(twitter::UserId user,
                                const std::vector<int64_t>& counts,
                                int match_rank) {
  // Row i names district key i; the profile is the matched row's key,
  // or a key no row has.
  UserGrouping grouping;
  grouping.user = user;
  grouping.match_rank = match_rank;
  grouping.group = GroupForRank(match_rank);
  grouping.profile_name_key = static_cast<uint32_t>(
      match_rank > 0 ? match_rank - 1 : static_cast<int>(counts.size()));
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i == grouping.profile_name_key) {
      grouping.matched_tweet_count = counts[i];
    }
    grouping.gps_tweet_count += counts[i];
    grouping.ordered.push_back(
        DistrictCount{static_cast<uint32_t>(i), counts[i]});
  }
  return grouping;
}

TEST(ConcentrationTest, SingleDistrictUser) {
  ConcentrationMetrics m =
      ComputeConcentration(GroupingWithCounts(1, {10}, 1));
  EXPECT_DOUBLE_EQ(m.entropy_bits, 0.0);
  EXPECT_DOUBLE_EQ(m.normalized_entropy, 0.0);
  EXPECT_DOUBLE_EQ(m.gini, 0.0);
  EXPECT_DOUBLE_EQ(m.top_share, 1.0);
  EXPECT_DOUBLE_EQ(m.matched_share, 1.0);
}

TEST(ConcentrationTest, UniformDistributionMaximizesEntropy) {
  ConcentrationMetrics m =
      ComputeConcentration(GroupingWithCounts(1, {5, 5, 5, 5}, 1));
  EXPECT_NEAR(m.entropy_bits, 2.0, 1e-12);  // log2(4)
  EXPECT_NEAR(m.normalized_entropy, 1.0, 1e-12);
  EXPECT_NEAR(m.gini, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.top_share, 0.25);
}

TEST(ConcentrationTest, SkewRaisesGiniLowersEntropy) {
  ConcentrationMetrics skewed =
      ComputeConcentration(GroupingWithCounts(1, {97, 1, 1, 1}, 1));
  ConcentrationMetrics flat =
      ComputeConcentration(GroupingWithCounts(2, {25, 25, 25, 25}, 1));
  EXPECT_LT(skewed.entropy_bits, flat.entropy_bits);
  EXPECT_GT(skewed.gini, flat.gini);
  EXPECT_GT(skewed.top_share, flat.top_share);
  EXPECT_GT(skewed.gini, 0.6);
}

TEST(ConcentrationTest, MatchedShareForNoneIsZero) {
  ConcentrationMetrics m =
      ComputeConcentration(GroupingWithCounts(1, {4, 3}, -1));
  EXPECT_DOUBLE_EQ(m.matched_share, 0.0);
}

TEST(ConcentrationTest, AnalyzeRequiresThreeUsers) {
  std::vector<UserGrouping> two = {GroupingWithCounts(1, {3}, 1),
                                   GroupingWithCounts(2, {3}, 1)};
  EXPECT_TRUE(AnalyzeConcentration(two).status().IsInvalidArgument());
}

TEST(ConcentrationTest, AnalyzeSeparatesHandCraftedGroups) {
  std::vector<UserGrouping> groupings = {
      GroupingWithCounts(1, {20, 2}, 1),      // concentrated Top-1
      GroupingWithCounts(2, {19, 3}, 1),      // concentrated Top-1
      GroupingWithCounts(3, {8, 7, 6, 5}, 4), // dispersed Top-4
      GroupingWithCounts(4, {7, 7, 6, 6}, 4), // dispersed Top-4
  };
  auto result = AnalyzeConcentration(groupings);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->mean_entropy[0],
            result->mean_entropy[static_cast<int>(TopKGroup::kTop4)]);
  EXPECT_GT(result->mean_matched_share[0],
            result->mean_matched_share[static_cast<int>(TopKGroup::kTop4)]);
  EXPECT_GT(result->rank_entropy_spearman, 0.8);
  EXPECT_GT(result->share_rank_spearman, 0.8);
}

TEST(ConcentrationTest, EndToEndOnSyntheticCorpus) {
  // The corpus-level extension claim: deeper matched ranks correlate
  // with more dispersed tweeting, and matched share anti-correlates
  // with rank.
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(0.1));
  auto data = generator.Generate();
  CorrelationStudy study(&db);
  StudyResult result = study.Run(data.dataset);
  auto analysis = AnalyzeConcentration(result.groupings);
  ASSERT_TRUE(analysis.ok());
  EXPECT_GT(analysis->rank_entropy_spearman, 0.3);
  EXPECT_GT(analysis->share_rank_spearman, 0.5);
  // Top-1 users concentrate more than Top-3 users.
  EXPECT_LT(analysis->mean_entropy[0], analysis->mean_entropy[2]);
}

}  // namespace
}  // namespace stir::core
