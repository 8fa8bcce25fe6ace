#include "core/location_string.h"

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace stir::core {
namespace {

LocationRecord MakeRecord(twitter::UserId user, const std::string& ps,
                          const std::string& pc, const std::string& ts,
                          const std::string& tc) {
  LocationRecord record;
  record.user = user;
  record.profile_state = ps;
  record.profile_county = pc;
  record.tweet_state = ts;
  record.tweet_county = tc;
  return record;
}

TEST(LocationRecordTest, ToStringMatchesPaperTable1Format) {
  LocationRecord record =
      MakeRecord(123, "Seoul", "Yangcheon-gu", "Seoul", "Jung-gu");
  EXPECT_EQ(record.ToString(), "123#Seoul#Yangcheon-gu#Seoul#Jung-gu");
}

TEST(LocationRecordTest, FromStringRoundTrip) {
  LocationRecord record =
      MakeRecord(71, "Gyeonggi-do", "Uiwang-si", "Gyeonggi-do", "Seongnam-si");
  auto parsed = LocationRecord::FromString(record.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, record);
}

TEST(LocationRecordTest, FromStringRejectsMalformed) {
  EXPECT_FALSE(LocationRecord::FromString("1#a#b#c").ok());
  EXPECT_FALSE(LocationRecord::FromString("1#a#b#c#d#e").ok());
  EXPECT_FALSE(LocationRecord::FromString("x#a#b#c#d").ok());
  EXPECT_FALSE(LocationRecord::FromString("").ok());
}

TEST(LocationRecordTest, IsMatched) {
  EXPECT_TRUE(MakeRecord(1, "Seoul", "Jung-gu", "Seoul", "Jung-gu")
                  .IsMatched());
  EXPECT_FALSE(MakeRecord(1, "Seoul", "Jung-gu", "Busan", "Jung-gu")
                   .IsMatched());
  EXPECT_FALSE(MakeRecord(1, "Seoul", "Jung-gu", "Seoul", "Mapo-gu")
                   .IsMatched());
}

TEST(MergeAndOrderTest, ReproducesPaperTable2) {
  // The paper's example: user 123... has 4 strings, 2 of them identical.
  std::vector<LocationRecord> records = {
      MakeRecord(123, "Seoul", "Yangcheon-gu", "Seoul", "Yangcheon-gu"),
      MakeRecord(123, "Seoul", "Yangcheon-gu", "Seoul", "Seodaemun-gu"),
      MakeRecord(123, "Seoul", "Yangcheon-gu", "Seoul", "Jung-gu"),
      MakeRecord(123, "Seoul", "Yangcheon-gu", "Seoul", "Jung-gu"),
      MakeRecord(123, "Seoul", "Yangcheon-gu", "Seoul", "Yangcheon-gu"),
      MakeRecord(123, "Seoul", "Yangcheon-gu", "Seoul", "Yangcheon-gu"),
  };
  auto merged = MergeAndOrder(records);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].record.tweet_county, "Yangcheon-gu");
  EXPECT_EQ(merged[0].count, 3);
  EXPECT_EQ(merged[1].record.tweet_county, "Jung-gu");
  EXPECT_EQ(merged[1].count, 2);
  EXPECT_EQ(merged[2].record.tweet_county, "Seodaemun-gu");
  EXPECT_EQ(merged[2].count, 1);
  EXPECT_EQ(merged[0].ToString(),
            "123#Seoul#Yangcheon-gu#Seoul#Yangcheon-gu (3)");
}

TEST(MergeAndOrderTest, CountsSumToInputSize) {
  std::vector<LocationRecord> records;
  for (int i = 0; i < 20; ++i) {
    records.push_back(MakeRecord(5, "Seoul", "Mapo-gu", "Seoul",
                                 i % 3 == 0 ? "Mapo-gu" : "Jung-gu"));
  }
  auto merged = MergeAndOrder(records);
  int64_t total = 0;
  for (const auto& m : merged) total += m.count;
  EXPECT_EQ(total, 20);
}

TEST(MergeAndOrderTest, TieBreaksLexicographically) {
  std::vector<LocationRecord> records = {
      MakeRecord(9, "Seoul", "Mapo-gu", "Seoul", "Zebra-gu"),
      MakeRecord(9, "Seoul", "Mapo-gu", "Seoul", "Alpha-gu"),
  };
  auto merged = MergeAndOrder(records);
  ASSERT_EQ(merged.size(), 2u);
  // Equal counts (1 each): deterministic lexicographic order.
  EXPECT_EQ(merged[0].record.tweet_county, "Alpha-gu");
  EXPECT_EQ(merged[1].record.tweet_county, "Zebra-gu");
}

TEST(MergeAndOrderTest, EmptyInput) {
  EXPECT_TRUE(MergeAndOrder({}).empty());
}

TEST(MergeAndOrderTest, ReverseTieBreakFlipsOnlyTiedRuns) {
  std::vector<LocationRecord> records = {
      MakeRecord(9, "Seoul", "Mapo-gu", "Seoul", "Alpha-gu"),
      MakeRecord(9, "Seoul", "Mapo-gu", "Seoul", "Zebra-gu"),
      MakeRecord(9, "Seoul", "Mapo-gu", "Seoul", "Top-gu"),
      MakeRecord(9, "Seoul", "Mapo-gu", "Seoul", "Top-gu"),
  };
  auto lex = MergeAndOrder(records, TieBreak::kLexicographic);
  auto rev = MergeAndOrder(records, TieBreak::kReverseLexicographic);
  ASSERT_EQ(lex.size(), 3u);
  ASSERT_EQ(rev.size(), 3u);
  // The count-2 row stays first under both rules.
  EXPECT_EQ(lex[0].record.tweet_county, "Top-gu");
  EXPECT_EQ(rev[0].record.tweet_county, "Top-gu");
  // The tied count-1 rows swap.
  EXPECT_EQ(lex[1].record.tweet_county, "Alpha-gu");
  EXPECT_EQ(rev[1].record.tweet_county, "Zebra-gu");
}

TEST(MergeAndOrderTest, TieBreakPreservesCountsAndMembership) {
  std::vector<LocationRecord> records;
  for (int i = 0; i < 30; ++i) {
    records.push_back(MakeRecord(3, "Seoul", "Mapo-gu", "Seoul",
                                 StrFormat("C%d", i % 7)));
  }
  auto lex = MergeAndOrder(records, TieBreak::kLexicographic);
  auto rev = MergeAndOrder(records, TieBreak::kReverseLexicographic);
  ASSERT_EQ(lex.size(), rev.size());
  int64_t lex_total = 0, rev_total = 0;
  for (const auto& m : lex) lex_total += m.count;
  for (const auto& m : rev) rev_total += m.count;
  EXPECT_EQ(lex_total, 30);
  EXPECT_EQ(rev_total, 30);
  // Counts are non-increasing under both rules.
  for (size_t i = 1; i < lex.size(); ++i) {
    EXPECT_LE(lex[i].count, lex[i - 1].count);
    EXPECT_LE(rev[i].count, rev[i - 1].count);
  }
}

TEST(MergeAndOrderDeathTest, MixedUsersAbort) {
  std::vector<LocationRecord> records = {
      MakeRecord(1, "Seoul", "Mapo-gu", "Seoul", "Mapo-gu"),
      MakeRecord(2, "Seoul", "Mapo-gu", "Seoul", "Mapo-gu"),
  };
  EXPECT_DEATH(MergeAndOrder(records), "single user");
}

}  // namespace
}  // namespace stir::core
