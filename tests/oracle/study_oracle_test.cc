// The paper-literal oracle (oracle/paper_study.h) against the optimised
// study: every per-user rank, group, GPS count and distinct-location
// count, plus the funnel's geocode failures and final users, must agree
// on every generator seed, for both tie-break policies, with the
// geocoder cache on and off. Equivalence tests elsewhere compare the
// pipeline with another configuration of itself; this one compares it
// with an implementation that shares neither its geocoder, its merge
// nor its ranking code.

#include <gtest/gtest.h>

#include <string>

#include "core/study.h"
#include "oracle/paper_study.h"
#include "twitter/generator.h"

namespace stir {
namespace {

twitter::GeneratedData Generate(uint64_t seed, double scale) {
  twitter::DatasetGeneratorOptions options =
      twitter::DatasetGenerator::KoreanConfig(scale);
  options.seed = seed;
  return twitter::DatasetGenerator(&geo::AdminDb::KoreanDistricts(), options)
      .Generate();
}

void ExpectAgrees(const core::StudyResult& result,
                  const oracle::PaperStudy& paper, const std::string& label) {
  EXPECT_EQ(result.funnel.geocode_failures, paper.geocode_failures) << label;
  EXPECT_EQ(result.funnel.final_users,
            static_cast<int64_t>(paper.users.size()))
      << label;
  ASSERT_EQ(result.groupings.size(), paper.users.size()) << label;
  for (size_t i = 0; i < paper.users.size(); ++i) {
    const core::UserGrouping& got = result.groupings[i];
    const oracle::PaperUser& want = paper.users[i];
    ASSERT_EQ(got.user, want.user) << label << " final user #" << i;
    EXPECT_EQ(got.match_rank, want.match_rank)
        << label << " user " << want.user;
    EXPECT_EQ(core::TopKGroupToString(got.group), want.group)
        << label << " user " << want.user;
    EXPECT_EQ(got.gps_tweet_count, want.gps_tweets)
        << label << " user " << want.user;
    EXPECT_EQ(got.distinct_tweet_locations(), want.distinct_locations)
        << label << " user " << want.user;
  }
}

void CompareOnAllConfigs(const twitter::Dataset& dataset, int threads,
                         const std::string& label) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  for (core::TieBreak tie_break : {core::TieBreak::kLexicographic,
                                   core::TieBreak::kReverseLexicographic}) {
    const bool reverse = tie_break == core::TieBreak::kReverseLexicographic;
    const oracle::PaperStudy paper =
        oracle::RunPaperStudy(dataset, db, reverse);
    ASSERT_FALSE(paper.users.empty()) << label;
    for (bool cache : {true, false}) {
      StudyConfig config;
      config.threads = threads;
      config.tie_break = tie_break;
      config.geocoder.enable_cache = cache;
      const core::StudyResult result =
          core::CorrelationStudy(&db, config).Run(dataset);
      ExpectAgrees(result, paper,
                   label + (reverse ? " reverse" : " lexicographic") +
                       (cache ? " cache" : " no-cache"));
    }
  }
}

class StudyOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StudyOracleTest, StudyMatchesPaperLiteralReference) {
  const uint64_t seed = GetParam();
  const twitter::GeneratedData data = Generate(seed, 0.05);
  CompareOnAllConfigs(data.dataset, /*threads=*/1,
                      "seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StudyOracleTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(StudyOracleScaleTest, ShardedStudyMatchesAtHalfScale) {
  const twitter::GeneratedData data = Generate(7, 0.5);
  CompareOnAllConfigs(data.dataset, /*threads=*/4, "scale 0.5 seed 7");
}

}  // namespace
}  // namespace stir
