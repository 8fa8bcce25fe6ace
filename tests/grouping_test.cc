#include "core/grouping.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.h"

namespace stir::core {
namespace {

class GroupingTest : public ::testing::Test {
 protected:
  GroupingTest() : db_(geo::AdminDb::KoreanDistricts()) {}

  geo::RegionId Find(const std::string& state, const std::string& county) {
    auto id = db_.FindCounty(state, county);
    EXPECT_TRUE(id.ok()) << state << " " << county;
    return *id;
  }

  const geo::AdminDb& db_;
};

TEST_F(GroupingTest, GroupForRankMapping) {
  EXPECT_EQ(GroupForRank(1), TopKGroup::kTop1);
  EXPECT_EQ(GroupForRank(5), TopKGroup::kTop5);
  EXPECT_EQ(GroupForRank(6), TopKGroup::kTopPlus);
  EXPECT_EQ(GroupForRank(99), TopKGroup::kTopPlus);
  EXPECT_EQ(GroupForRank(-1), TopKGroup::kNone);
  EXPECT_EQ(GroupForRank(0), TopKGroup::kNone);
}

TEST_F(GroupingTest, GroupToStringNames) {
  EXPECT_STREQ(TopKGroupToString(TopKGroup::kTop1), "Top-1");
  EXPECT_STREQ(TopKGroupToString(TopKGroup::kTopPlus), "Top-6+");
  EXPECT_STREQ(TopKGroupToString(TopKGroup::kNone), "None");
}

TEST_F(GroupingTest, Top1UserLikePaperUser123) {
  // Profile Yangcheon-gu; 3 tweets there, 2 in Jung-gu, 1 in Seodaemun-gu.
  RefinedUser user;
  user.user = 123;
  user.profile_region = Find("Seoul", "Yangcheon-gu");
  geo::RegionId yangcheon = user.profile_region;
  geo::RegionId jung = Find("Seoul", "Jung-gu");
  geo::RegionId seodaemun = Find("Seoul", "Seodaemun-gu");
  user.tweet_regions = {yangcheon, jung, seodaemun, yangcheon, jung,
                        yangcheon};

  UserGrouping grouping = GroupUser(user, db_);
  EXPECT_EQ(grouping.match_rank, 1);
  EXPECT_EQ(grouping.group, TopKGroup::kTop1);
  EXPECT_EQ(grouping.gps_tweet_count, 6);
  EXPECT_EQ(grouping.matched_tweet_count, 3);
  EXPECT_EQ(grouping.distinct_tweet_locations(), 3);
}

TEST_F(GroupingTest, Top2UserLikePaperUser71) {
  // Profile Uiwang-si; 2 tweets there, 3 in Seongnam-si.
  RefinedUser user;
  user.user = 71;
  user.profile_region = Find("Gyeonggi-do", "Uiwang-si");
  geo::RegionId uiwang = user.profile_region;
  geo::RegionId seongnam = Find("Gyeonggi-do", "Seongnam-si");
  user.tweet_regions = {seongnam, uiwang, seongnam, uiwang, seongnam};

  UserGrouping grouping = GroupUser(user, db_);
  EXPECT_EQ(grouping.match_rank, 2);
  EXPECT_EQ(grouping.group, TopKGroup::kTop2);
  EXPECT_EQ(grouping.matched_tweet_count, 2);
}

TEST_F(GroupingTest, NoneUserHasNoMatchedString) {
  RefinedUser user;
  user.user = 9;
  user.profile_region = Find("Jeju-do", "Jeju-si");
  user.tweet_regions = {Find("Seoul", "Mapo-gu"), Find("Seoul", "Jung-gu")};
  UserGrouping grouping = GroupUser(user, db_);
  EXPECT_EQ(grouping.match_rank, -1);
  EXPECT_EQ(grouping.group, TopKGroup::kNone);
  EXPECT_EQ(grouping.matched_tweet_count, 0);
  EXPECT_EQ(grouping.distinct_tweet_locations(), 2);
}

TEST_F(GroupingTest, SameCountyNameDifferentStateIsNotAMatch) {
  // Profile Seoul Jung-gu; all tweets from Busan Jung-gu. The paper's
  // strings compare (state, county) pairs, so this must be None.
  RefinedUser user;
  user.user = 5;
  user.profile_region = Find("Seoul", "Jung-gu");
  user.tweet_regions = {Find("Busan", "Jung-gu"), Find("Busan", "Jung-gu")};
  UserGrouping grouping = GroupUser(user, db_);
  EXPECT_EQ(grouping.group, TopKGroup::kNone);
}

TEST_F(GroupingTest, TopPlusForDeepRank) {
  RefinedUser user;
  user.user = 6;
  user.profile_region = Find("Seoul", "Mapo-gu");
  // 6 other districts with 2 tweets each, profile district with 1.
  std::vector<std::string> counties = {"Jung-gu",    "Jongno-gu",
                                       "Yongsan-gu", "Seocho-gu",
                                       "Gangnam-gu", "Songpa-gu"};
  for (const std::string& county : counties) {
    geo::RegionId id = Find("Seoul", county);
    user.tweet_regions.push_back(id);
    user.tweet_regions.push_back(id);
  }
  user.tweet_regions.push_back(user.profile_region);
  UserGrouping grouping = GroupUser(user, db_);
  EXPECT_EQ(grouping.match_rank, 7);
  EXPECT_EQ(grouping.group, TopKGroup::kTopPlus);
}

TEST_F(GroupingTest, OrderedStringsDescendingCounts) {
  RefinedUser user;
  user.user = 7;
  user.profile_region = Find("Seoul", "Mapo-gu");
  user.tweet_regions = {
      Find("Seoul", "Jung-gu"),  Find("Seoul", "Jung-gu"),
      Find("Seoul", "Mapo-gu"),  Find("Seoul", "Jung-gu"),
      Find("Seoul", "Mapo-gu"),  Find("Seoul", "Jongno-gu"),
  };
  UserGrouping grouping = GroupUser(user, db_);
  ASSERT_EQ(grouping.ordered.size(), 3u);
  for (size_t i = 1; i < grouping.ordered.size(); ++i) {
    EXPECT_LE(grouping.ordered[i].count, grouping.ordered[i - 1].count);
  }
  EXPECT_EQ(grouping.match_rank, 2);
}

// Property sweep over random users: structural invariants of the
// text-based grouping hold for any tweet-region multiset.
class GroupingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupingPropertyTest, InvariantsHoldForRandomUsers) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    RefinedUser user;
    user.user = trial;
    user.profile_region = static_cast<geo::RegionId>(
        rng.UniformInt(0, static_cast<int64_t>(db.size()) - 1));
    int64_t tweets = rng.UniformInt(1, 60);
    std::set<geo::RegionId> distinct;
    bool profile_hit = false;
    for (int64_t t = 0; t < tweets; ++t) {
      // Cluster draws into few regions so merging actually merges.
      auto region = static_cast<geo::RegionId>(
          rng.UniformInt(0, 11) * 17 % static_cast<int64_t>(db.size()));
      user.tweet_regions.push_back(region);
      distinct.insert(region);
      profile_hit |= (region == user.profile_region);
    }

    UserGrouping grouping = GroupUser(user, db);
    // 1. Group is derived from the rank.
    EXPECT_EQ(grouping.group, GroupForRank(grouping.match_rank));
    // 2. Counts conserve the tweet multiset.
    int64_t total = 0;
    for (const auto& merged : grouping.ordered) total += merged.count;
    EXPECT_EQ(total, tweets);
    EXPECT_EQ(grouping.gps_tweet_count, tweets);
    // 3. Distinct districts equal the merged-list length.
    EXPECT_EQ(grouping.distinct_tweet_locations(),
              static_cast<int64_t>(distinct.size()));
    // 4. A matched string exists iff a tweet hit the profile district.
    EXPECT_EQ(grouping.match_rank > 0, profile_hit);
    if (grouping.match_rank > 0) {
      EXPECT_LE(grouping.match_rank,
                static_cast<int>(grouping.ordered.size()));
      EXPECT_EQ(grouping.ordered[static_cast<size_t>(grouping.match_rank - 1)]
                    .name_key,
                grouping.profile_name_key);
      EXPECT_GT(grouping.matched_tweet_count, 0);
    } else {
      EXPECT_EQ(grouping.matched_tweet_count, 0);
    }
    // 5. Ordered counts are non-increasing.
    for (size_t i = 1; i < grouping.ordered.size(); ++i) {
      EXPECT_LE(grouping.ordered[i].count, grouping.ordered[i - 1].count);
    }
    // 6. Rendered, the rows are the string path's Table II: MergeAndOrder
    //    over the user's Table I records, under either tie rule.
    const geo::Region& profile = db.region(user.profile_region);
    std::vector<LocationRecord> records;
    for (geo::RegionId region : user.tweet_regions) {
      records.push_back(LocationRecord{user.user, profile.state,
                                       profile.county, db.region(region).state,
                                       db.region(region).county});
    }
    for (TieBreak tie_break :
         {TieBreak::kLexicographic, TieBreak::kReverseLexicographic}) {
      const UserGrouping keyed = GroupUser(user, db, tie_break);
      const std::vector<MergedLocationString> strings =
          MergeAndOrder(records, tie_break);
      ASSERT_EQ(keyed.ordered.size(), strings.size());
      for (size_t i = 0; i < strings.size(); ++i) {
        EXPECT_EQ(RenderTableRow(keyed, keyed.ordered[i], db).ToString(),
                  strings[i].ToString());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupingPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u));

TEST_F(GroupingTest, GroupUsersProcessesAll) {
  RefinedUser a;
  a.user = 1;
  a.profile_region = Find("Seoul", "Mapo-gu");
  a.tweet_regions = {a.profile_region};
  RefinedUser b;
  b.user = 2;
  b.profile_region = Find("Busan", "Haeundae-gu");
  b.tweet_regions = {Find("Seoul", "Jung-gu")};
  auto groupings = GroupUsers({a, b}, db_);
  ASSERT_EQ(groupings.size(), 2u);
  EXPECT_EQ(groupings[0].group, TopKGroup::kTop1);
  EXPECT_EQ(groupings[1].group, TopKGroup::kNone);
}

}  // namespace
}  // namespace stir::core
