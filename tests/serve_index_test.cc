// StudyIndex: the immutable serving snapshot of a StudyResult. These
// tests pin the structural invariants the serving layer's determinism
// rests on: value-determined orderings, exhaustive user coverage,
// ascending duplicate-free postings, and alias-tolerant district lookup.

#include "serve/study_index.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/study.h"
#include "geo/admin_db.h"
#include "gtest/gtest.h"
#include "twitter/generator.h"

namespace stir::serve {
namespace {

using geo::AdminDb;

/// One shared small Korean study (generation + pipeline is the expensive
/// part; every test reads the same frozen result).
class StudyIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const AdminDb& db = AdminDb::KoreanDistricts();
    twitter::DatasetGenerator generator(
        &db, twitter::DatasetGenerator::KoreanConfig(0.05));
    data_ = new twitter::GeneratedData(generator.Generate());
    core::CorrelationStudy study(&db);
    result_ = new core::StudyResult(study.Run(data_->dataset));
    index_ = new StudyIndex(StudyIndex::Build(*result_, db));
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
    delete result_;
    result_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  static twitter::GeneratedData* data_;
  static core::StudyResult* result_;
  static StudyIndex* index_;
};

twitter::GeneratedData* StudyIndexTest::data_ = nullptr;
core::StudyResult* StudyIndexTest::result_ = nullptr;
StudyIndex* StudyIndexTest::index_ = nullptr;

TEST_F(StudyIndexTest, CoversEveryFinalUser) {
  ASSERT_FALSE(index_->empty());
  EXPECT_EQ(index_->user_count(), result_->groupings.size());
  EXPECT_EQ(index_->final_users(), result_->final_users);
  for (const core::UserGrouping& grouping : result_->groupings) {
    const UserEntry* entry = index_->FindUser(grouping.user);
    ASSERT_NE(entry, nullptr) << "user " << grouping.user;
    EXPECT_EQ(entry->user, grouping.user);
    EXPECT_EQ(entry->group, grouping.group);
    EXPECT_EQ(entry->match_rank, grouping.match_rank);
    EXPECT_EQ(entry->gps_tweets, grouping.gps_tweet_count);
    EXPECT_EQ(entry->matched_tweets, grouping.matched_tweet_count);
    EXPECT_EQ(entry->num_locations, grouping.ordered.size());
  }
}

TEST_F(StudyIndexTest, UnknownUserIsNull) {
  EXPECT_EQ(index_->FindUser(-1), nullptr);
  EXPECT_EQ(index_->FindUser(1'000'000'000), nullptr);
}

TEST_F(StudyIndexTest, UsersAreValueOrdered) {
  const std::vector<UserEntry>& users = index_->users();
  for (size_t i = 1; i < users.size(); ++i) {
    EXPECT_LT(users[i - 1].user, users[i].user);
  }
}

/// A grouping row as the paper's Table II record.
core::LocationRecord Record(const core::UserGrouping& grouping,
                            const core::DistrictCount& row) {
  return core::RenderTableRow(grouping, row, AdminDb::KoreanDistricts())
      .record;
}

TEST_F(StudyIndexTest, LocationsMirrorRankedLists) {
  for (const core::UserGrouping& grouping : result_->groupings) {
    const UserEntry* entry = index_->FindUser(grouping.user);
    ASSERT_NE(entry, nullptr);
    const RankedLocation* location = index_->LocationsBegin(*entry);
    for (const core::DistrictCount& row : grouping.ordered) {
      ASSERT_NE(location, index_->LocationsEnd(*entry));
      const core::LocationRecord record = Record(grouping, row);
      EXPECT_EQ(index_->name(location->district),
                record.tweet_state + " " + record.tweet_county);
      EXPECT_EQ(location->count, row.count);
      EXPECT_EQ(location->matched, record.IsMatched());
      ++location;
    }
    EXPECT_EQ(location, index_->LocationsEnd(*entry));
  }
}

TEST_F(StudyIndexTest, PostingsAscendingAndDupFree) {
  ASSERT_GT(index_->district_count(), 0u);
  int64_t postings_total = 0;
  for (const DistrictEntry& district : index_->districts()) {
    const twitter::UserId* begin = index_->PostingsBegin(district);
    const twitter::UserId* end = index_->PostingsEnd(district);
    EXPECT_EQ(end - begin, district.num_users);
    postings_total += district.num_users;
    for (const twitter::UserId* p = begin; p != end; ++p) {
      if (p != begin) {
        EXPECT_LT(*(p - 1), *p);
      }
      EXPECT_NE(index_->FindUser(*p), nullptr);
    }
  }
  // Every (user, district) edge appears exactly once.
  int64_t expected_edges = 0;
  for (const core::UserGrouping& grouping : result_->groupings) {
    expected_edges += static_cast<int64_t>(grouping.ordered.size());
  }
  EXPECT_EQ(postings_total, expected_edges);
}

TEST_F(StudyIndexTest, EveryTweetDistrictIsFindable) {
  for (const core::UserGrouping& grouping : result_->groupings) {
    for (const core::DistrictCount& row : grouping.ordered) {
      const core::LocationRecord record = Record(grouping, row);
      const DistrictEntry* district =
          index_->FindDistrict(record.tweet_state, record.tweet_county);
      ASSERT_NE(district, nullptr)
          << record.tweet_state << " " << record.tweet_county;
      const twitter::UserId* begin = index_->PostingsBegin(*district);
      const twitter::UserId* end = index_->PostingsEnd(*district);
      EXPECT_TRUE(std::binary_search(begin, end, grouping.user));
    }
  }
}

TEST_F(StudyIndexTest, DistrictLookupIsCaseInsensitive) {
  ASSERT_FALSE(result_->groupings.empty());
  const core::UserGrouping& grouping = result_->groupings.front();
  const core::LocationRecord record =
      Record(grouping, grouping.ordered.front());
  const DistrictEntry* exact =
      index_->FindDistrict(record.tweet_state, record.tweet_county);
  ASSERT_NE(exact, nullptr);
  std::string upper_state = record.tweet_state;
  std::string upper_county = record.tweet_county;
  for (char& c : upper_state) c = static_cast<char>(toupper(c));
  for (char& c : upper_county) c = static_cast<char>(toupper(c));
  EXPECT_EQ(index_->FindDistrict(upper_state, upper_county), exact);
}

TEST_F(StudyIndexTest, DistrictLookupAcceptsHangulAlias) {
  // Find any indexed district the gazetteer has a hangul spelling for.
  bool tested = false;
  for (const core::UserGrouping& grouping : result_->groupings) {
    for (const core::DistrictCount& row : grouping.ordered) {
      const core::LocationRecord record = Record(grouping, row);
      const char* hangul = geo::AdminDb::HangulCountyName(
          record.tweet_state, record.tweet_county);
      if (hangul == nullptr) continue;
      EXPECT_EQ(index_->FindDistrict(record.tweet_state, hangul),
                index_->FindDistrict(record.tweet_state, record.tweet_county));
      tested = true;
    }
  }
  EXPECT_TRUE(tested) << "corpus produced no district with a hangul alias";
}

TEST_F(StudyIndexTest, UnknownDistrictIsNull) {
  EXPECT_EQ(index_->FindDistrict("Atlantis", "Downtown"), nullptr);
  EXPECT_EQ(index_->FindDistrict("", ""), nullptr);
}

TEST_F(StudyIndexTest, GroupTableMatchesResult) {
  for (int g = 0; g < core::kNumTopKGroups; ++g) {
    core::TopKGroup group = static_cast<core::TopKGroup>(g);
    EXPECT_EQ(index_->group(group).users, result_->groups[g].users);
    EXPECT_EQ(index_->group(group).gps_tweets, result_->groups[g].gps_tweets);
  }
  EXPECT_EQ(index_->funnel().crawled_users, result_->funnel.crawled_users);
  EXPECT_DOUBLE_EQ(index_->overall_avg_locations(),
                   result_->overall_avg_locations);
}

TEST_F(StudyIndexTest, RebuildIsStructurallyIdentical) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  StudyIndex again = StudyIndex::Build(*result_, db);
  EXPECT_EQ(again.user_count(), index_->user_count());
  EXPECT_EQ(again.district_count(), index_->district_count());
  EXPECT_EQ(again.MemoryBytes(), index_->MemoryBytes());
  ASSERT_EQ(again.districts().size(), index_->districts().size());
  for (size_t i = 0; i < again.districts().size(); ++i) {
    EXPECT_EQ(again.name(again.districts()[i].name),
              index_->name(index_->districts()[i].name));
    EXPECT_EQ(again.districts()[i].num_users,
              index_->districts()[i].num_users);
    EXPECT_EQ(again.districts()[i].gps_tweets,
              index_->districts()[i].gps_tweets);
  }
}

TEST_F(StudyIndexTest, IncompleteStudyYieldsEmptyIndex) {
  core::StudyResult incomplete = *result_;
  incomplete.incomplete = true;
  StudyIndex index =
      StudyIndex::Build(incomplete, AdminDb::KoreanDistricts());
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.user_count(), 0u);
  EXPECT_EQ(index.district_count(), 0u);
}

TEST_F(StudyIndexTest, MemoryBytesIsPositiveAndStable) {
  EXPECT_GT(index_->MemoryBytes(), 0);
  EXPECT_EQ(index_->MemoryBytes(), index_->MemoryBytes());
}

TEST(StudyIndexLookupTest, DefaultIndexAnswersNull) {
  const StudyIndex index;
  EXPECT_EQ(index.FindDistrict("Seoul", "Gangnam-gu"), nullptr);
  EXPECT_EQ(index.FindDistrict("", ""), nullptr);
  EXPECT_EQ(index.FindUser(1), nullptr);
  EXPECT_EQ(index.FindUser(-1), nullptr);
}

/// ASCII upper case; other bytes (hangul) pass through.
std::string AsciiUpper(std::string text) {
  for (char& c : text) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return text;
}

/// Every spelling of every region of each built-in gazetteer — the county,
/// each alias and the hangul name, under the romanized state, as written
/// and in upper case — finds that region's district, or nothing when no
/// user of the index tweeted from or lives in it. The index is built from
/// a hand-made result: region i gets a final user who lives and tweets
/// there, except every fourth region, whose user lives there but tweets
/// from region i - 1 (a profile-only district), and every seventh, which
/// gets no user.
TEST(StudyIndexLookupTest, EverySpellingOfEveryRegionFindsItsDistrict) {
  for (const AdminDb* db :
       {&AdminDb::KoreanDistricts(), &AdminDb::WorldCities()}) {
    const geo::DistrictNameTable& names = db->district_names();
    core::StudyResult result;
    std::map<uint32_t, int64_t> users_of_key, profile_users_of_key;
    for (geo::RegionId region = 0; static_cast<size_t>(region) < db->size();
         ++region) {
      if (region % 7 == 6) continue;
      core::RefinedUser user;
      user.user = 1000 + region;
      user.profile_region = region;
      user.tweet_regions = {region % 4 == 3 ? region - 1 : region};
      result.groupings.push_back(core::GroupUser(user, *db));
      ++users_of_key[names.key_of_region[user.tweet_regions[0]]];
      ++profile_users_of_key[names.key_of_region[region]];
    }
    result.final_users = static_cast<int64_t>(result.groupings.size());
    const StudyIndex index = StudyIndex::Build(result, *db);
    ASSERT_EQ(index.user_count(), result.groupings.size());

    int profile_only = 0;
    for (const geo::Region& region : db->regions()) {
      const uint32_t key = names.key_of_region[region.id];
      const int64_t users = users_of_key[key];
      const int64_t profile_users = profile_users_of_key[key];
      profile_only += users == 0 && profile_users > 0;
      std::vector<std::string> counties = {region.county};
      counties.insert(counties.end(), region.aliases.begin(),
                      region.aliases.end());
      if (const char* hangul =
              AdminDb::HangulCountyName(region.state, region.county)) {
        counties.push_back(hangul);
      }
      for (const std::string& county : counties) {
        for (const auto& [state, spelled] :
             {std::pair(region.state, county),
              std::pair(AsciiUpper(region.state), AsciiUpper(county))}) {
          const DistrictEntry* entry = index.FindDistrict(state, spelled);
          if (users == 0 && profile_users == 0) {
            EXPECT_EQ(entry, nullptr) << state << " / " << spelled;
            continue;
          }
          ASSERT_NE(entry, nullptr) << state << " / " << spelled;
          EXPECT_EQ(index.name(entry->name), names.names[key].display);
          EXPECT_EQ(entry->num_users, users) << state << " / " << spelled;
          EXPECT_EQ(entry->profile_users, profile_users)
              << state << " / " << spelled;
        }
      }
    }
    EXPECT_GT(profile_only, 0);
  }
}

/// Two name keys whose display strings coincide ("A B" + "C" against
/// "A" + "B C") are two districts, each found under its own pair, in key
/// order.
TEST(StudyIndexLookupTest, CollidingDisplaysStayTwoDistricts) {
  std::vector<geo::Region> regions(2);
  regions[0].state = "A B";
  regions[0].county = "C";
  regions[0].centroid = geo::LatLng{10.0, 10.0};
  regions[1].state = "A";
  regions[1].county = "B C";
  regions[1].centroid = geo::LatLng{10.0, 11.0};
  const AdminDb db(regions, 25.0);

  core::StudyResult result;
  core::RefinedUser first;
  first.user = 1;
  first.profile_region = 0;
  first.tweet_regions = {0, 0};
  core::RefinedUser second;
  second.user = 2;
  second.profile_region = 1;
  second.tweet_regions = {1};
  result.groupings = {core::GroupUser(first, db), core::GroupUser(second, db)};
  const StudyIndex index = StudyIndex::Build(result, db);

  ASSERT_EQ(index.district_count(), 2u);
  const DistrictEntry* a_b = index.FindDistrict("A B", "C");
  const DistrictEntry* a = index.FindDistrict("a", "b c");
  ASSERT_NE(a_b, nullptr);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a_b, &index.districts()[0]);
  EXPECT_EQ(a, &index.districts()[1]);
  for (const DistrictEntry* district : {a_b, a}) {
    EXPECT_EQ(index.name(district->name), "A B C");
    EXPECT_EQ(district->num_users, 1u);
    EXPECT_EQ(district->profile_users, 1);
  }
  EXPECT_EQ(a_b->gps_tweets, 2);
  EXPECT_EQ(*index.PostingsBegin(*a_b), 1);
  EXPECT_EQ(a->gps_tweets, 1);
  EXPECT_EQ(*index.PostingsBegin(*a), 2);
}

}  // namespace
}  // namespace stir::serve
