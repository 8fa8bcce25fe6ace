// StudyIndex: the immutable serving snapshot of a StudyResult. These
// tests pin the structural invariants the serving layer's determinism
// rests on: value-determined orderings, exhaustive user coverage,
// ascending duplicate-free postings, and alias-tolerant district lookup.

#include "serve/study_index.h"

#include <algorithm>
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

TEST_F(StudyIndexTest, LocationsMirrorRankedLists) {
  for (const core::UserGrouping& grouping : result_->groupings) {
    const UserEntry* entry = index_->FindUser(grouping.user);
    ASSERT_NE(entry, nullptr);
    const RankedLocation* location = index_->LocationsBegin(*entry);
    for (const core::MergedLocationString& merged : grouping.ordered) {
      ASSERT_NE(location, index_->LocationsEnd(*entry));
      EXPECT_EQ(index_->name(location->district),
                merged.record.tweet_state + " " + merged.record.tweet_county);
      EXPECT_EQ(location->count, merged.count);
      EXPECT_EQ(location->matched, merged.record.IsMatched());
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
    for (const core::MergedLocationString& merged : grouping.ordered) {
      const DistrictEntry* district = index_->FindDistrict(
          merged.record.tweet_state, merged.record.tweet_county);
      ASSERT_NE(district, nullptr)
          << merged.record.tweet_state << " " << merged.record.tweet_county;
      const twitter::UserId* begin = index_->PostingsBegin(*district);
      const twitter::UserId* end = index_->PostingsEnd(*district);
      EXPECT_TRUE(std::binary_search(begin, end, grouping.user));
    }
  }
}

TEST_F(StudyIndexTest, DistrictLookupIsCaseInsensitive) {
  ASSERT_FALSE(result_->groupings.empty());
  const core::LocationRecord& record =
      result_->groupings.front().ordered.front().record;
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
    for (const core::MergedLocationString& merged : grouping.ordered) {
      const char* hangul = geo::AdminDb::HangulCountyName(
          merged.record.tweet_state, merged.record.tweet_county);
      if (hangul == nullptr) continue;
      EXPECT_EQ(index_->FindDistrict(merged.record.tweet_state, hangul),
                index_->FindDistrict(merged.record.tweet_state,
                                     merged.record.tweet_county));
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

}  // namespace
}  // namespace stir::serve
