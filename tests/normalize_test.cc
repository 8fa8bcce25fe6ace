#include "text/normalize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "geo/admin_db.h"
#include "text/gazetteer_matcher.h"

namespace stir::text {
namespace {

/// Reference Levenshtein DP with early exit once the distance exceeds
/// `max_distance` (returns max_distance + 1 in that case): the oracle the
/// linear EditDistanceIsOne must agree with.
int BoundedEditDistance(std::string_view a, std::string_view b,
                        int max_distance) {
  if (a.size() > b.size()) std::swap(a, b);
  int n = static_cast<int>(a.size());
  int m = static_cast<int>(b.size());
  if (m - n > max_distance) return max_distance + 1;

  std::vector<int> prev(static_cast<size_t>(n) + 1);
  std::vector<int> cur(static_cast<size_t>(n) + 1);
  for (int j = 0; j <= n; ++j) prev[static_cast<size_t>(j)] = j;
  for (int i = 1; i <= m; ++i) {
    cur[0] = i;
    int row_min = cur[0];
    for (int j = 1; j <= n; ++j) {
      int cost = a[static_cast<size_t>(j - 1)] == b[static_cast<size_t>(i - 1)]
                     ? 0
                     : 1;
      cur[static_cast<size_t>(j)] =
          std::min({prev[static_cast<size_t>(j)] + 1,
                    cur[static_cast<size_t>(j - 1)] + 1,
                    prev[static_cast<size_t>(j - 1)] + cost});
      row_min = std::min(row_min, cur[static_cast<size_t>(j)]);
    }
    if (row_min > max_distance) return max_distance + 1;
    std::swap(prev, cur);
  }
  return std::min(prev[static_cast<size_t>(n)], max_distance + 1);
}

/// One random substitution, insertion or deletion, drawing new bytes from
/// `alphabet`.
std::string RandomEdit(std::string s, std::string_view alphabet, Rng& rng) {
  auto pick_byte = [&] {
    return alphabet[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))];
  };
  const int64_t kind = s.empty() ? 1 : rng.UniformInt(0, 2);
  if (kind == 1) {
    s.insert(s.begin() + rng.UniformInt(0, static_cast<int64_t>(s.size())),
             pick_byte());
    return s;
  }
  const auto at = rng.UniformInt(0, static_cast<int64_t>(s.size()) - 1);
  if (kind == 0) {
    s[static_cast<size_t>(at)] = pick_byte();
  } else {
    s.erase(s.begin() + at);
  }
  return s;
}

TEST(NormalizeTest, LowercasesAndCollapses) {
  EXPECT_EQ(NormalizeFreeText("  Seoul,   KOREA!! "), "seoul korea");
  EXPECT_EQ(NormalizeFreeText(""), "");
  EXPECT_EQ(NormalizeFreeText("..."), "");
}

TEST(NormalizeTest, KeepsIntraWordHyphen) {
  EXPECT_EQ(NormalizeFreeText("Yangcheon-gu"), "yangcheon-gu");
  EXPECT_EQ(NormalizeFreeText("- dash - art -"), "dash art");
  EXPECT_EQ(NormalizeFreeText("a-b-c"), "a-b-c");
}

TEST(NormalizeTest, PassesThroughUtf8) {
  std::string korean = "\xEC\x84\x9C\xEC\x9A\xB8 Jung-gu";  // "서울 Jung-gu"
  EXPECT_EQ(NormalizeFreeText(korean),
            "\xEC\x84\x9C\xEC\x9A\xB8 jung-gu");
}

TEST(TokenizeTest, SplitsOnNormalizedSpaces) {
  EXPECT_EQ(Tokenize("Seoul, Yangcheon-gu (Korea)"),
            (std::vector<std::string>{"seoul", "yangcheon-gu", "korea"}));
  EXPECT_TRUE(Tokenize("  !!! ").empty());
}

TEST(TokenizeTweetTest, StripsUrlsAndMentionSigils) {
  auto tokens =
      TokenizeTweet("big quake!! @user1 see https://t.co/abc #earthquake");
  EXPECT_EQ(tokens, (std::vector<std::string>{"big", "quake", "user1", "see",
                                              "earthquake"}));
}

TEST(TokenizeTweetTest, KeepsApostrophes) {
  EXPECT_EQ(TokenizeTweet("don't stop"),
            (std::vector<std::string>{"don't", "stop"}));
}

TEST(TokenizeTweetTest, KeepsIntraWordHyphens) {
  EXPECT_EQ(TokenizeTweet("lunch at Yangcheon-gu today"),
            (std::vector<std::string>{"lunch", "at", "yangcheon-gu",
                                      "today"}));
  // Trailing or leading joiners do not stick.
  EXPECT_EQ(TokenizeTweet("well- said -yes"),
            (std::vector<std::string>{"well", "said", "yes"}));
}

TEST(EditDistanceTest, BasicDistances) {
  EXPECT_EQ(BoundedEditDistance("abc", "abc", 3), 0);
  EXPECT_EQ(BoundedEditDistance("abc", "abd", 3), 1);
  EXPECT_EQ(BoundedEditDistance("abc", "ab", 3), 1);
  EXPECT_EQ(BoundedEditDistance("abc", "xbcy", 3), 2);
  EXPECT_EQ(BoundedEditDistance("", "abc", 5), 3);
  EXPECT_EQ(BoundedEditDistance("gangnam", "gangnm", 1), 1);
}

TEST(EditDistanceTest, EarlyExitAboveBound) {
  EXPECT_EQ(BoundedEditDistance("aaaa", "bbbb", 2), 3);  // bound + 1
  EXPECT_EQ(BoundedEditDistance("short", "muchlongerstring", 2), 3);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(BoundedEditDistance("seoul", "busan", 5),
            BoundedEditDistance("busan", "seoul", 5));
}

TEST(EditDistanceTest, DistanceOneBasics) {
  EXPECT_TRUE(EditDistanceIsOne("abc", "abd"));
  EXPECT_TRUE(EditDistanceIsOne("abc", "ab"));
  EXPECT_TRUE(EditDistanceIsOne("ab", "abc"));
  EXPECT_TRUE(EditDistanceIsOne("", "a"));
  EXPECT_TRUE(EditDistanceIsOne("gangnam", "gangnm"));
  EXPECT_TRUE(EditDistanceIsOne("aab", "ab"));  // either 'a' may go
  EXPECT_FALSE(EditDistanceIsOne("abc", "abc"));
  EXPECT_FALSE(EditDistanceIsOne("", ""));
  EXPECT_FALSE(EditDistanceIsOne("ab", "ba"));
  EXPECT_FALSE(EditDistanceIsOne("abc", "xbcy"));
  EXPECT_FALSE(EditDistanceIsOne("abc", "a"));
}

TEST(EditDistanceTest, DistanceOneMatchesReferenceDpOnFuzzyPoolEdits) {
  // Every fuzzy-pool name of both gazetteers against seeded single and
  // double edits, each compared in both argument orders.
  Rng rng(20120401);
  int64_t ones = 0;
  int64_t others = 0;
  for (const geo::AdminDb* db :
       {&geo::AdminDb::KoreanDistricts(), &geo::AdminDb::WorldCities()}) {
    GazetteerMatcher matcher(db);
    ASSERT_FALSE(matcher.fuzzy_pool().empty());
    for (const std::string& name : matcher.fuzzy_pool()) {
      // Bytes of the name itself make edits that undo each other likely.
      const std::string alphabet = name + "-'x\xEC";
      for (int trial = 0; trial < 40; ++trial) {
        std::string edited = RandomEdit(name, alphabet, rng);
        if (trial % 2 == 1) edited = RandomEdit(edited, alphabet, rng);
        const bool expected = BoundedEditDistance(edited, name, 2) == 1;
        ASSERT_EQ(EditDistanceIsOne(edited, name), expected)
            << '"' << edited << "\" vs \"" << name << '"';
        ASSERT_EQ(EditDistanceIsOne(name, edited), expected)
            << '"' << name << "\" vs \"" << edited << '"';
        ++(expected ? ones : others);
      }
    }
  }
  EXPECT_GT(ones, 0);
  EXPECT_GT(others, 0);
}

}  // namespace
}  // namespace stir::text
