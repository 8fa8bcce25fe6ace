#include "twitter/dataset.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace stir::twitter {
namespace {

User MakeUser(UserId id, const std::string& location, int64_t total) {
  User user;
  user.id = id;
  user.handle = "user" + std::to_string(id);
  user.profile_location = location;
  user.total_tweets = total;
  return user;
}

Tweet MakeTweet(TweetId id, UserId user, SimTime time,
                std::optional<geo::LatLng> gps = std::nullopt,
                std::string text = "hello") {
  Tweet tweet;
  tweet.id = id;
  tweet.user = user;
  tweet.time = time;
  tweet.gps = gps;
  tweet.text = std::move(text);
  return tweet;
}

TEST(DatasetTest, AddAndLookup) {
  Dataset dataset;
  dataset.AddUser(MakeUser(1, "Seoul Mapo-gu", 100));
  dataset.AddUser(MakeUser(2, "", 50));
  dataset.AddTweet(MakeTweet(10, 1, 1000, geo::LatLng{37.55, 126.9}));
  dataset.AddTweet(MakeTweet(11, 1, 2000));
  dataset.AddTweet(MakeTweet(12, 2, 1500));

  EXPECT_EQ(dataset.users().size(), 2u);
  EXPECT_EQ(dataset.tweets().size(), 3u);
  EXPECT_EQ(dataset.gps_tweet_count(), 1);
  EXPECT_EQ(dataset.total_tweet_count(), 150);
  ASSERT_NE(dataset.FindUser(1), nullptr);
  EXPECT_EQ(dataset.FindUser(1)->profile_location, "Seoul Mapo-gu");
  EXPECT_EQ(dataset.FindUser(99), nullptr);
  EXPECT_EQ(dataset.TweetIndicesOf(1).size(), 2u);
  EXPECT_EQ(dataset.TweetIndicesOf(2).size(), 1u);
  EXPECT_TRUE(dataset.TweetIndicesOf(99).empty());
}

TEST(DatasetTest, TsvRoundTrip) {
  Dataset dataset;
  dataset.AddUser(MakeUser(1, "Seoul Gangnam-gu", 7));
  dataset.AddUser(MakeUser(2, "my\thome", 3));  // delimiter in field
  // Full-precision coordinates, as the generator makes them.
  const geo::LatLng fix{37.517034567891234, 127.04712345678901};
  dataset.AddTweet(MakeTweet(5, 1, 42, fix, "at Gangnam"));
  dataset.AddTweet(MakeTweet(6, 2, 43, std::nullopt, "plain tweet"));

  std::string users_path = ::testing::TempDir() + "/stir_users.tsv";
  std::string tweets_path = ::testing::TempDir() + "/stir_tweets.tsv";
  ASSERT_TRUE(dataset.SaveTsv(users_path, tweets_path).ok());

  auto loaded = Dataset::LoadTsv(users_path, tweets_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->users().size(), 2u);
  EXPECT_EQ(loaded->tweets().size(), 2u);
  EXPECT_EQ(loaded->FindUser(2)->profile_location, "my\thome");
  EXPECT_EQ(loaded->gps_tweet_count(), 1);
  const Tweet& gps_tweet = loaded->tweets()[0];
  ASSERT_TRUE(gps_tweet.gps.has_value());
  EXPECT_EQ(gps_tweet.gps->lat, fix.lat);
  EXPECT_EQ(gps_tweet.gps->lng, fix.lng);
  EXPECT_EQ(gps_tweet.text, "at Gangnam");

  std::remove(users_path.c_str());
  std::remove(tweets_path.c_str());
}

TEST(DatasetTest, LoadRejectsTweetFromUnknownUser) {
  std::string users_path = ::testing::TempDir() + "/stir_users_bad.tsv";
  std::string tweets_path = ::testing::TempDir() + "/stir_tweets_bad.tsv";
  {
    Dataset dataset;
    dataset.AddUser(MakeUser(1, "x", 1));
    ASSERT_TRUE(dataset.SaveTsv(users_path, tweets_path).ok());
  }
  // Append a tweet from user 999.
  FILE* f = fopen(tweets_path.c_str(), "a");
  ASSERT_NE(f, nullptr);
  fputs("7\t999\t0\t\t\toops\n", f);
  fclose(f);
  auto loaded = Dataset::LoadTsv(users_path, tweets_path);
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  std::remove(users_path.c_str());
  std::remove(tweets_path.c_str());
}

TEST(DatasetTest, LoadRejectsBadCoordinates) {
  std::string users_path = ::testing::TempDir() + "/stir_users_bad2.tsv";
  std::string tweets_path = ::testing::TempDir() + "/stir_tweets_bad2.tsv";
  {
    Dataset dataset;
    dataset.AddUser(MakeUser(1, "x", 1));
    ASSERT_TRUE(dataset.SaveTsv(users_path, tweets_path).ok());
  }
  FILE* f = fopen(tweets_path.c_str(), "a");
  ASSERT_NE(f, nullptr);
  fputs("7\t1\t0\tnotanumber\t12\toops\n", f);
  fclose(f);
  EXPECT_TRUE(Dataset::LoadTsv(users_path, tweets_path)
                  .status()
                  .IsInvalidArgument());
  std::remove(users_path.c_str());
  std::remove(tweets_path.c_str());
}

/// Writes a TSV pair with every malformed-row shape the lenient loader
/// quarantines: wrong field count, bad ints, duplicate user ids, bad
/// coordinates, and tweets from unknown users.
void WriteMalformedTsvPair(const std::string& users_path,
                           const std::string& tweets_path) {
  FILE* users = fopen(users_path.c_str(), "w");
  ASSERT_NE(users, nullptr);
  fputs("id\thandle\tprofile_location\ttotal_tweets\n", users);
  fputs("1\talice\tSeoul\t10\n", users);
  fputs("2\tbob\tBusan\n", users);              // 3 fields
  fputs("notanid\tcarol\tDaegu\t5\n", users);   // bad id
  fputs("1\tdave\tIncheon\t3\n", users);        // duplicate of user 1
  fputs("4\terin\tGwangju\t7\n", users);
  fclose(users);

  FILE* tweets = fopen(tweets_path.c_str(), "w");
  ASSERT_NE(tweets, nullptr);
  fputs("id\tuser\ttime\tlat\tlng\ttext\n", tweets);
  fputs("10\t1\t100\t37.5\t127.0\tok\n", tweets);
  fputs("11\t1\t200\tnotanumber\t12\tbad coords\n", tweets);
  fputs("12\t999\t300\t\t\tunknown user\n", tweets);
  fputs("13\t4\t400\t\t\tplain ok\n", tweets);
  fputs("14\t4\n", tweets);  // 2 fields
  fclose(tweets);
}

TEST(DatasetTest, LenientLoadQuarantinesMalformedRows) {
  std::string users_path = ::testing::TempDir() + "/stir_users_lenient.tsv";
  std::string tweets_path = ::testing::TempDir() + "/stir_tweets_lenient.tsv";
  WriteMalformedTsvPair(users_path, tweets_path);

  Dataset::TsvLoadOptions lenient;
  lenient.strict = false;
  Dataset::TsvLoadStats stats;
  auto loaded = Dataset::LoadTsv(users_path, tweets_path, lenient, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Users 1 and 4 survive; the 3-field, bad-id, and duplicate rows don't.
  ASSERT_EQ(loaded->users().size(), 2u);
  EXPECT_NE(loaded->FindUser(1), nullptr);
  EXPECT_NE(loaded->FindUser(4), nullptr);
  EXPECT_EQ(loaded->FindUser(1)->handle, "alice");  // duplicate lost
  EXPECT_EQ(stats.quarantined_user_rows, 3);

  // Tweets 10 and 13 survive; bad coords, unknown user, short row don't.
  ASSERT_EQ(loaded->tweets().size(), 2u);
  EXPECT_EQ(loaded->tweets()[0].id, 10);
  EXPECT_EQ(loaded->tweets()[1].id, 13);
  EXPECT_EQ(stats.quarantined_tweet_rows, 3);
  EXPECT_EQ(stats.quarantined(), 6);
}

TEST(DatasetTest, StrictLoadStillFailsFastOnMalformedRows) {
  std::string users_path = ::testing::TempDir() + "/stir_users_strict.tsv";
  std::string tweets_path = ::testing::TempDir() + "/stir_tweets_strict.tsv";
  WriteMalformedTsvPair(users_path, tweets_path);

  // Both the 2-arg overload and explicit strict options fail fast.
  EXPECT_TRUE(Dataset::LoadTsv(users_path, tweets_path)
                  .status()
                  .IsInvalidArgument());
  Dataset::TsvLoadStats stats;
  EXPECT_TRUE(Dataset::LoadTsv(users_path, tweets_path,
                               Dataset::TsvLoadOptions{}, &stats)
                  .status()
                  .IsInvalidArgument());
  std::remove(users_path.c_str());
  std::remove(tweets_path.c_str());
}

TEST(DatasetTest, LenientLoadOnCleanFilesQuarantinesNothing) {
  std::string users_path = ::testing::TempDir() + "/stir_users_clean.tsv";
  std::string tweets_path = ::testing::TempDir() + "/stir_tweets_clean.tsv";
  {
    Dataset dataset;
    dataset.AddUser(MakeUser(1, "Seoul", 2));
    dataset.AddTweet(MakeTweet(10, 1, 100, geo::LatLng{37.5, 127.0}));
    dataset.AddTweet(MakeTweet(11, 1, 200));
    ASSERT_TRUE(dataset.SaveTsv(users_path, tweets_path).ok());
  }
  Dataset::TsvLoadOptions lenient;
  lenient.strict = false;
  Dataset::TsvLoadStats stats;
  auto loaded = Dataset::LoadTsv(users_path, tweets_path, lenient, &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->users().size(), 1u);
  EXPECT_EQ(loaded->tweets().size(), 2u);
  EXPECT_EQ(stats.quarantined(), 0);
  std::remove(users_path.c_str());
  std::remove(tweets_path.c_str());
}

TEST(DatasetDeathTest, DuplicateUserAborts) {
  Dataset dataset;
  dataset.AddUser(MakeUser(1, "x", 1));
  EXPECT_DEATH(dataset.AddUser(MakeUser(1, "y", 2)), "duplicate user");
}

TEST(DatasetDeathTest, TweetFromUnknownUserAborts) {
  Dataset dataset;
  EXPECT_DEATH(dataset.AddTweet(MakeTweet(1, 42, 0)), "unknown user");
}

}  // namespace
}  // namespace stir::twitter
