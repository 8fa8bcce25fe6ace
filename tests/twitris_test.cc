#include "event/twitris.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/string_util.h"

namespace stir::event {
namespace {

class TwitrisTest : public ::testing::Test {
 protected:
  TwitrisTest() : db_(geo::AdminDb::KoreanDistricts()) {}

  void AddUser(twitter::UserId id, const std::string& location) {
    twitter::User user;
    user.id = id;
    user.handle = StrFormat("u%lld", static_cast<long long>(id));
    user.profile_location = location;
    user.total_tweets = 10;
    dataset_.AddUser(user);
  }

  void AddTweet(twitter::UserId user, SimTime time, const std::string& text,
                std::optional<geo::LatLng> gps = std::nullopt) {
    twitter::Tweet tweet;
    tweet.id = next_id_++;
    tweet.user = user;
    tweet.time = time;
    tweet.text = text;
    tweet.gps = gps;
    dataset_.AddTweet(tweet);
  }

  const geo::AdminDb& db_;
  twitter::Dataset dataset_;
  twitter::TweetId next_id_ = 1;
};

TEST_F(TwitrisTest, GroupsByDayAndState) {
  AddUser(1, "Seoul Mapo-gu");
  geo::LatLng seoul{37.5663, 126.9019};
  geo::LatLng busan{35.1631, 129.1636};
  for (int i = 0; i < 5; ++i) {
    AddTweet(1, 100 + i, "coffee morning subway", seoul);
    AddTweet(1, kSecondsPerDay + 100 + i, "beach festival fireworks", busan);
  }
  TwitrisOptions options;
  options.min_tweets_per_cell = 3;
  options.use_profile_fallback = false;
  TwitrisSummarizer summarizer(&db_, options);
  auto summaries = summarizer.Summarize(dataset_);
  ASSERT_TRUE(summaries.ok());
  ASSERT_EQ(summaries->size(), 2u);
  EXPECT_EQ((*summaries)[0].day, 0);
  EXPECT_EQ((*summaries)[0].state, "Seoul");
  EXPECT_EQ((*summaries)[1].day, 1);
  EXPECT_EQ((*summaries)[1].state, "Busan");
}

TEST_F(TwitrisTest, TopTermsAreDistinctive) {
  AddUser(1, "Seoul Mapo-gu");
  geo::LatLng seoul{37.5663, 126.9019};
  geo::LatLng busan{35.1631, 129.1636};
  for (int i = 0; i < 8; ++i) {
    AddTweet(1, 100 + i, "lunch traffic earthquake", seoul);
    AddTweet(1, 200 + i, "lunch traffic festival", busan);
  }
  TwitrisOptions options;
  options.top_k_terms = 1;
  options.use_profile_fallback = false;
  TwitrisSummarizer summarizer(&db_, options);
  auto summaries = summarizer.Summarize(dataset_);
  ASSERT_TRUE(summaries.ok());
  ASSERT_EQ(summaries->size(), 2u);
  // The shared background words lose to the cell-specific term.
  for (const auto& cell : *summaries) {
    ASSERT_EQ(cell.top_terms.size(), 1u);
    if (cell.state == "Seoul") {
      EXPECT_EQ(cell.top_terms[0].term, "earthquake");
    } else {
      EXPECT_EQ(cell.top_terms[0].term, "festival");
    }
  }
}

TEST_F(TwitrisTest, ProfileFallbackAssignsUnGeotaggedTweets) {
  AddUser(1, "Seoul Mapo-gu");
  AddUser(2, "Earth");  // unparseable: tweets can never be assigned
  for (int i = 0; i < 5; ++i) {
    AddTweet(1, 100 + i, "morning coffee subway");  // no GPS
    AddTweet(2, 100 + i, "lost tweets");            // no GPS, no profile
  }
  TwitrisOptions options;
  options.min_tweets_per_cell = 1;
  TwitrisSummarizer summarizer(&db_, options);
  auto summaries = summarizer.Summarize(dataset_);
  ASSERT_TRUE(summaries.ok());
  ASSERT_EQ(summaries->size(), 1u);
  EXPECT_EQ((*summaries)[0].state, "Seoul");
  EXPECT_EQ((*summaries)[0].tweet_count, 5);
}

TEST_F(TwitrisTest, GpsBeatsProfileWhenBothAvailable) {
  AddUser(1, "Seoul Mapo-gu");
  geo::LatLng busan{35.1631, 129.1636};
  for (int i = 0; i < 4; ++i) {
    AddTweet(1, 100 + i, "haeundae beach", busan);  // GPS says Busan
  }
  TwitrisOptions options;
  options.min_tweets_per_cell = 1;
  TwitrisSummarizer summarizer(&db_, options);
  auto summaries = summarizer.Summarize(dataset_);
  ASSERT_TRUE(summaries.ok());
  ASSERT_EQ(summaries->size(), 1u);
  EXPECT_EQ((*summaries)[0].state, "Busan");
}

TEST_F(TwitrisTest, MinTweetsPerCellFilters) {
  AddUser(1, "Seoul Mapo-gu");
  geo::LatLng seoul{37.5663, 126.9019};
  AddTweet(1, 100, "lonely tweet", seoul);
  TwitrisOptions options;
  options.min_tweets_per_cell = 3;
  options.use_profile_fallback = false;
  TwitrisSummarizer summarizer(&db_, options);
  auto summaries = summarizer.Summarize(dataset_);
  ASSERT_TRUE(summaries.ok());
  EXPECT_TRUE(summaries->empty());
}

}  // namespace
}  // namespace stir::event
