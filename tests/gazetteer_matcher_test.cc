#include "text/gazetteer_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "text/normalize.h"
#include "twitter/generator.h"

namespace stir::text {
namespace {

class GazetteerMatcherTest : public ::testing::Test {
 protected:
  GazetteerMatcherTest()
      : korean_(&geo::AdminDb::KoreanDistricts()),
        world_(&geo::AdminDb::WorldCities()) {}

  std::vector<PhraseMatch> MatchKorean(const std::string& s) {
    return korean_.Match(Tokenize(s));
  }
  std::vector<PhraseMatch> MatchWorld(const std::string& s) {
    return world_.Match(Tokenize(s));
  }

  GazetteerMatcher korean_;
  GazetteerMatcher world_;
};

TEST_F(GazetteerMatcherTest, CountyAndStateInOneString) {
  auto matches = MatchKorean("Seoul Yangcheon-gu");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].phrase->kind, PhraseKind::kState);
  EXPECT_EQ(matches[0].phrase->name, "Seoul");
  EXPECT_EQ(matches[1].phrase->kind, PhraseKind::kCounty);
  ASSERT_EQ(matches[1].phrase->regions.size(), 1u);
}

TEST_F(GazetteerMatcherTest, AmbiguousCountyListsAllRegions) {
  auto matches = MatchKorean("Jung-gu");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].phrase->kind, PhraseKind::kCounty);
  // Six metros have a Jung-gu.
  EXPECT_EQ(matches[0].phrase->regions.size(), 6u);
}

TEST_F(GazetteerMatcherTest, CountryAlias) {
  auto matches = MatchKorean("Korea");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].phrase->kind, PhraseKind::kCountry);
  EXPECT_EQ(matches[0].phrase->name, "South Korea");
}

TEST_F(GazetteerMatcherTest, MultiWordPhraseGreedyLongest) {
  auto matches = MatchWorld("Gold Coast Australia");
  ASSERT_GE(matches.size(), 2u);
  EXPECT_EQ(matches[0].phrase->kind, PhraseKind::kCounty);
  EXPECT_EQ(matches[0].phrase->name, "Gold Coast");
  EXPECT_EQ(matches[0].token_count, 2u);
  EXPECT_EQ(matches[1].phrase->kind, PhraseKind::kCountry);
}

TEST_F(GazetteerMatcherTest, NewYorkCityVsState) {
  // "new york" is both a state and a city; the county entry must win.
  auto matches = MatchWorld("New York");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].phrase->kind, PhraseKind::kCounty);
}

TEST_F(GazetteerMatcherTest, FuzzyHitOnLongCountyName) {
  auto matches = MatchKorean("Gangnm-gu");  // dropped 'a'
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_TRUE(matches[0].fuzzy);
  EXPECT_EQ(matches[0].phrase->name, "Gangnam-gu");
}

TEST_F(GazetteerMatcherTest, NoFuzzyOnShortTokens) {
  // Too short for the fuzzy pool (could hit many things).
  auto matches = MatchKorean("seul");
  EXPECT_TRUE(matches.empty());
}

TEST_F(GazetteerMatcherTest, NoMatchesForNoise) {
  EXPECT_TRUE(MatchKorean("darangland :)").empty());
  EXPECT_TRUE(MatchKorean("my home").empty());
  EXPECT_TRUE(MatchKorean("").empty());
}

TEST_F(GazetteerMatcherTest, EveryCountyNameMatchesItself) {
  // Property over the whole gazetteer: the matcher must recognize each
  // county's own normalized name, and one candidate must be that county.
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  for (const geo::Region& region : db.regions()) {
    auto matches = korean_.Match(Tokenize(region.county));
    ASSERT_FALSE(matches.empty()) << region.FullName();
    EXPECT_EQ(matches[0].phrase->kind, PhraseKind::kCounty)
        << region.FullName();
    bool found = false;
    for (geo::RegionId id : matches[0].phrase->regions) {
      found |= (id == region.id);
    }
    EXPECT_TRUE(found) << region.FullName();
  }
}

/// Match's exact entries.
std::vector<PhraseMatch> ExactOnly(std::vector<PhraseMatch> matches) {
  matches.erase(std::remove_if(matches.begin(), matches.end(),
                               [](const PhraseMatch& m) { return m.fuzzy; }),
                matches.end());
  return matches;
}

/// The literal exact scan: at each token, join every run of tokens into a
/// phrase string, longest first, and look it up; advance past a match or
/// one token on a miss.
std::vector<PhraseMatch> ReferenceExactScan(
    const GazetteerMatcher& matcher, const std::vector<std::string>& tokens) {
  std::vector<PhraseMatch> matches;
  size_t i = 0;
  while (i < tokens.size()) {
    const Phrase* phrase = nullptr;
    size_t len = tokens.size() - i;
    for (; len >= 1; --len) {
      std::string joined = tokens[i];
      for (size_t k = 1; k < len; ++k) joined += ' ' + tokens[i + k];
      phrase = matcher.Find(joined);
      if (phrase != nullptr) break;
    }
    if (phrase == nullptr) {
      ++i;
      continue;
    }
    matches.push_back({i, len, phrase, /*fuzzy=*/false});
    i += len;
  }
  return matches;
}

/// Expects `actual` to equal `expected` field by field.
void ExpectSameMatches(const std::vector<PhraseMatch>& actual,
                       const std::vector<PhraseMatch>& expected,
                       const std::string& source) {
  ASSERT_EQ(actual.size(), expected.size()) << source;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].token_begin, expected[i].token_begin) << source;
    EXPECT_EQ(actual[i].token_count, expected[i].token_count) << source;
    EXPECT_EQ(actual[i].phrase, expected[i].phrase) << source;
    EXPECT_EQ(actual[i].fuzzy, expected[i].fuzzy) << source;
  }
}

/// For one text: the exact scan, Match without its fuzzy entries, and
/// the literal reference scan all agree. Returns whether Match found
/// fuzzy entries.
bool ExpectExactScansAgree(const GazetteerMatcher& matcher,
                           const std::vector<std::string>& tokens,
                           const JoinedTokens& joined,
                           const std::string& source) {
  const std::vector<PhraseMatch> reference =
      ReferenceExactScan(matcher, tokens);
  const std::vector<PhraseMatch> matches = matcher.Match(tokens);
  const std::vector<PhraseMatch> exact = ExactOnly(matches);
  ExpectSameMatches(exact, reference, source);
  std::vector<PhraseMatch> scanned;
  matcher.ScanExact(joined, &scanned);
  ExpectSameMatches(scanned, reference, source);
  return exact.size() != matches.size();
}

TEST(GazetteerMatcherPropertyTest, ExactScanIsMatchWithoutFuzzyEntries) {
  // Profiles and tweets of generated corpora for both gazetteers.
  struct Case {
    const geo::AdminDb* db;
    twitter::DatasetGeneratorOptions options;
  };
  const Case cases[] = {
      {&geo::AdminDb::KoreanDistricts(),
       twitter::DatasetGenerator::KoreanConfig(0.05)},
      {&geo::AdminDb::WorldCities(),
       twitter::DatasetGenerator::LadyGagaConfig(0.05)},
  };
  int64_t fuzzy_profiles = 0;
  int64_t tweet_matches = 0;
  int64_t multi_word = 0;
  for (const Case& c : cases) {
    GazetteerMatcher matcher(c.db);
    twitter::DatasetGenerator generator(c.db, c.options);
    twitter::GeneratedData data = generator.Generate();
    ASSERT_FALSE(data.dataset.users().empty());
    for (const twitter::User& user : data.dataset.users()) {
      std::vector<std::string> tokens = Tokenize(user.profile_location);
      fuzzy_profiles += ExpectExactScansAgree(
          matcher, tokens, JoinedTokens(tokens), user.profile_location);
      for (const PhraseMatch& match : ReferenceExactScan(matcher, tokens)) {
        multi_word += match.token_count > 1;
      }
    }
    JoinedTokens joined;
    for (const twitter::Tweet& tweet : data.dataset.tweets()) {
      std::vector<std::string> tokens = TokenizeTweet(tweet.text);
      TokenizeTweet(tweet.text, &joined);
      ASSERT_EQ(joined.ToStrings(), tokens) << tweet.text;
      ExpectExactScansAgree(matcher, tokens, joined, tweet.text);
      tweet_matches +=
          static_cast<int64_t>(ReferenceExactScan(matcher, tokens).size());
    }
  }
  // Every path ran: typo'd profiles took the fuzzy fallback, profiles
  // named multi-word places, and tweets mentioned places.
  EXPECT_GT(fuzzy_profiles, 0);
  EXPECT_GT(multi_word, 0);
  EXPECT_GT(tweet_matches, 0);
}

}  // namespace
}  // namespace stir::text
