#include "io/corpus.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/report.h"
#include "core/study.h"
#include "io/fault_fs.h"
#include "twitter/generator.h"

namespace stir::io {
namespace {

/// A name in the temp directory unique to this process: ctest runs each
/// case in its own process, possibly several at once.
std::filesystem::path TempPath(const char* name) {
  return std::filesystem::temp_directory_path() /
         (std::to_string(::getpid()) + "_" + name);
}

/// A small mixed corpus: some users with GPS tweets, some without, one
/// with no tweets at all, empty and duplicate strings in the arena.
twitter::Dataset MakeDataset() {
  twitter::Dataset dataset;
  auto add_user = [&](twitter::UserId id, const std::string& handle,
                      const std::string& profile, int64_t total) {
    twitter::User user;
    user.id = id;
    user.handle = handle;
    user.profile_location = profile;
    user.total_tweets = total;
    dataset.AddUser(user);
  };
  auto add_tweet = [&](twitter::TweetId id, twitter::UserId user,
                       SimTime time, std::optional<geo::LatLng> gps,
                       const std::string& text) {
    twitter::Tweet tweet;
    tweet.id = id;
    tweet.user = user;
    tweet.time = time;
    tweet.gps = gps;
    tweet.text = text;
    dataset.AddTweet(std::move(tweet));
  };
  add_user(7, "alpha", "Seoul Gangnam-gu", 120);
  add_user(3, "beta", "Seoul Gangnam-gu", 5);  // duplicate profile string
  add_user(11, "gamma", "", 40);               // empty profile
  add_user(20, "delta", "Uiwang-si", 0);       // no tweets
  add_tweet(100, 7, 1000, geo::LatLng{37.5, 127.04}, "gps tweet");
  add_tweet(101, 7, 1010, std::nullopt, "");  // empty text
  add_tweet(102, 3, 500, geo::LatLng{37.49, 127.0}, "another");
  add_tweet(103, 11, 2000, std::nullopt, "plain\ttext\nwith bytes");
  add_tweet(104, 7, 1020, geo::LatLng{37.51, 127.05}, "gps tweet");
  return dataset;
}

std::string ReadFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(CorpusWriterTest, RoundTripIsFieldIdentical) {
  std::filesystem::path path = TempPath("corpus_roundtrip.corpus");
  twitter::Dataset dataset = MakeDataset();
  auto stats = CorpusWriter::WriteDataset(dataset, path.string());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->users, 4);
  EXPECT_EQ(stats->tweets, 5);
  EXPECT_EQ(stats->gps_tweets, 3);
  EXPECT_EQ(stats->total_tweets, 165);

  auto view = CorpusView::Open(path.string());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_EQ(view->user_count(), 4u);
  ASSERT_EQ(view->tweet_count(), 5u);
  EXPECT_EQ(view->gps_tweet_count(), 3);
  EXPECT_EQ(view->total_tweet_count(), 165);

  for (size_t i = 0; i < dataset.users().size(); ++i) {
    const twitter::User& a = dataset.users()[i];
    EXPECT_EQ(a.id, view->user_id(i));
    EXPECT_EQ(a.handle, view->user_handle(i));
    EXPECT_EQ(a.profile_location, view->user_profile_location(i));
    EXPECT_EQ(a.total_tweets, view->user_total_tweets(i));
  }
  for (size_t i = 0; i < dataset.tweets().size(); ++i) {
    const twitter::Tweet& a = dataset.tweets()[i];
    const twitter::Tweet b = view->MaterializeTweet(i);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.gps.has_value(), b.gps.has_value());
    if (a.gps && b.gps) {
      EXPECT_DOUBLE_EQ(a.gps->lat, b.gps->lat);
      EXPECT_DOUBLE_EQ(a.gps->lng, b.gps->lng);
    }
    EXPECT_EQ(a.text, b.text);
  }
  std::filesystem::remove(path);
}

TEST(CorpusWriterTest, CsrCoversInterleavedTweets) {
  // MakeDataset interleaves users 7/3/11, so the writer must emit an
  // explicit CSR permutation (not the grouped fast path) and the view's
  // per-user walk must land on exactly that user's rows.
  std::filesystem::path path = TempPath("corpus_csr.corpus");
  twitter::Dataset dataset = MakeDataset();
  auto stats = CorpusWriter::WriteDataset(dataset, path.string());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->grouped);

  auto view = CorpusView::Open(path.string());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view->grouped());
  // User row 0 is id 7 with tweet rows {0, 1, 4}.
  ASSERT_EQ(view->user_id(0), 7);
  ASSERT_EQ(view->user_tweet_end(0) - view->user_tweet_begin(0), 3u);
  for (uint64_t pos = view->user_tweet_begin(0);
       pos < view->user_tweet_end(0); ++pos) {
    EXPECT_EQ(view->tweet_user_row(view->user_tweet_row(pos)), 0u);
  }
  // User row 3 is id 20 with no tweets.
  EXPECT_EQ(view->user_id(3), 20);
  EXPECT_EQ(view->user_tweet_begin(3), view->user_tweet_end(3));
  std::filesystem::remove(path);
}

TEST(CorpusWriterTest, GroupedStreamOmitsCsrAndMatchesBatchWrite) {
  // The generator's natural order (each user's tweets contiguous, users
  // in append order) must be detected as grouped, and the streamed file
  // must be byte-identical to the batch WriteDataset of the same data.
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(0.01));

  std::filesystem::path streamed = TempPath("corpus_streamed.corpus");
  {
    CorpusWriter writer(streamed.string());
    auto info = generator.GenerateToCorpus(&writer);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    auto stats = writer.Finish();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_TRUE(stats->grouped);
  }

  std::filesystem::path batch = TempPath("corpus_batch.corpus");
  {
    twitter::GeneratedData data = generator.Generate();
    auto stats = CorpusWriter::WriteDataset(data.dataset, batch.string());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_TRUE(stats->grouped);
  }

  std::ifstream a(streamed, std::ios::binary);
  std::ifstream b(batch, std::ios::binary);
  std::string a_bytes((std::istreambuf_iterator<char>(a)),
                      std::istreambuf_iterator<char>());
  std::string b_bytes((std::istreambuf_iterator<char>(b)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(a_bytes.size(), b_bytes.size());
  EXPECT_TRUE(a_bytes == b_bytes)
      << "streamed and batch corpus files differ";
  std::filesystem::remove(streamed);
  std::filesystem::remove(batch);
}

TEST(CorpusWriterTest, RejectsTweetFromUnknownUser) {
  std::filesystem::path path = TempPath("corpus_unknown_user.corpus");
  CorpusWriter writer(path.string());
  twitter::Tweet tweet;
  tweet.id = 1;
  tweet.user = 42;
  EXPECT_FALSE(writer.AddTweet(tweet).ok());
  std::filesystem::remove(path);
}

// The writer's id -> row table against a std::map: scattered and
// negative ids across many growths, every duplicate and unknown id
// rejected with its message, and tweets from the user added last and
// from users long before it landing on their own rows.
TEST(CorpusWriterTest, IdTableMatchesAMapAcrossGrowths) {
  std::filesystem::path path = TempPath("corpus_id_table.corpus");
  CorpusWriterOptions options;
  options.fsync = false;
  CorpusWriter writer(path.string(), options);
  Rng rng(5);
  std::map<twitter::UserId, uint32_t> rows;
  std::vector<twitter::UserId> ids;
  std::vector<std::pair<twitter::TweetId, twitter::UserId>> tweets;
  auto add_tweet = [&](twitter::UserId user) {
    twitter::Tweet tweet;
    tweet.id = static_cast<twitter::TweetId>(tweets.size()) + 1;
    tweet.user = user;
    tweet.text = "t";
    ASSERT_TRUE(writer.AddTweet(tweet).ok());
    tweets.emplace_back(tweet.id, user);
  };
  while (ids.size() < 5000) {
    twitter::User user;
    user.id = rng.UniformInt(-(int64_t{1} << 40), int64_t{1} << 40);
    user.handle = std::to_string(user.id);
    const bool fresh =
        rows.emplace(user.id, static_cast<uint32_t>(ids.size())).second;
    Status added = writer.AddUser(user);
    if (!fresh) {
      EXPECT_EQ(added.ToString(),
                Status::InvalidArgument("duplicate user id " +
                                        std::to_string(user.id))
                    .ToString());
      continue;
    }
    ASSERT_TRUE(added.ok()) << added.ToString();
    ids.push_back(user.id);
    add_tweet(user.id);  // the user added last
    add_tweet(ids[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))]);
    if (ids.size() % 7 == 0) {
      // Every id so far is still a duplicate.
      twitter::User again;
      again.id = ids[ids.size() / 2];
      EXPECT_FALSE(writer.AddUser(again).ok());
      twitter::Tweet stray;
      stray.id = 99;
      stray.user = (int64_t{1} << 41) + static_cast<int64_t>(ids.size());
      EXPECT_EQ(writer.AddTweet(stray).ToString(),
                Status::InvalidArgument("tweet 99 from unknown user " +
                                        std::to_string(stray.user))
                    .ToString());
    }
  }
  ASSERT_TRUE(writer.Finish().ok());
  auto view = CorpusView::Open(path.string());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_EQ(view->user_count(), ids.size());
  for (size_t row = 0; row < ids.size(); ++row) {
    EXPECT_EQ(view->user_id(row), ids[row]);
  }
  ASSERT_EQ(view->tweet_count(), tweets.size());
  for (size_t t = 0; t < tweets.size(); ++t) {
    EXPECT_EQ(view->tweet_id(t), tweets[t].first);
    EXPECT_EQ(view->tweet_user_row(t), rows.at(tweets[t].second));
  }
  std::filesystem::remove(path);
}

class CorpusCorruptionTest : public ::testing::Test {
 protected:
  static std::string Fixture(const char* name) {
    return std::string(STIR_TEST_DATA_DIR) + "/corpus/" + name;
  }
};

TEST_F(CorpusCorruptionTest, CleanFixtureOpens) {
  auto view = CorpusView::Open(Fixture("tiny.corpus"));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_GT(view->user_count(), 0u);
  EXPECT_TRUE(view->grouped());
  EXPECT_TRUE(IsArenaCorpusFile(Fixture("tiny.corpus")));
}

TEST_F(CorpusCorruptionTest, RejectsBadMagic) {
  auto view = CorpusView::Open(Fixture("bad_magic.corpus"));
  EXPECT_FALSE(view.ok());
  EXPECT_FALSE(IsArenaCorpusFile(Fixture("bad_magic.corpus")));
}

TEST_F(CorpusCorruptionTest, RejectsBadCrc) {
  auto view = CorpusView::Open(Fixture("bad_crc.corpus"));
  ASSERT_FALSE(view.ok());
  EXPECT_NE(view.status().ToString().find("CRC"), std::string::npos)
      << view.status().ToString();
}

TEST_F(CorpusCorruptionTest, BadCrcSlipsPastDisabledVerification) {
  // Documents what verify_crc=false trades away: the flipped byte lives
  // in the payload, so structural checks alone may accept the file.
  CorpusViewOptions options;
  options.verify_crc = false;
  auto view = CorpusView::Open(Fixture("bad_crc.corpus"), options);
  // Either outcome is structurally legal; the point is no crash and that
  // the default (verifying) path above rejects it.
  if (view.ok()) {
    EXPECT_GT(view->user_count(), 0u);
  }
}

TEST_F(CorpusCorruptionTest, RejectsTruncation) {
  auto view = CorpusView::Open(Fixture("truncated.corpus"));
  EXPECT_FALSE(view.ok());
}

TEST_F(CorpusCorruptionTest, RejectsMissingFile) {
  auto view = CorpusView::Open(Fixture("no_such.corpus"));
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kIOError);
}

TEST_F(CorpusCorruptionTest, RejectsHeaderSizeMismatch) {
  // Append junk: the header's file_size no longer matches the mapping.
  std::filesystem::path path = TempPath("corpus_grown.corpus");
  std::filesystem::copy_file(
      Fixture("tiny.corpus"), path,
      std::filesystem::copy_options::overwrite_existing);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "trailing garbage";
  }
  auto view = CorpusView::Open(path.string());
  EXPECT_FALSE(view.ok());
  std::filesystem::remove(path);
}

// --- The in-memory image (CorpusView::FromDataset) ----------------------

twitter::GeneratedData GenerateKorean(double scale) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  return twitter::DatasetGenerator(
             &db, twitter::DatasetGenerator::KoreanConfig(scale))
      .Generate();
}

TEST(CorpusImageTest, ImageBytesEqualTheWrittenFile) {
  // Grouped (the generator's order) and ungrouped (MakeDataset
  // interleaves users, so the CSR permutation is written) datasets; the
  // file writer spills every 64 rows so spilled columns are covered too.
  twitter::GeneratedData data = GenerateKorean(0.02);
  const twitter::Dataset ungrouped = MakeDataset();
  struct Case {
    const char* name;
    const twitter::Dataset* dataset;
    bool grouped;
  };
  for (const Case& c : {Case{"grouped", &data.dataset, true},
                        Case{"ungrouped", &ungrouped, false}}) {
    for (size_t spill_rows :
         {size_t{64}, CorpusWriterOptions().tweet_spill_rows}) {
      std::filesystem::path path = TempPath("corpus_image.corpus");
      CorpusWriterOptions options;
      options.tweet_spill_rows = spill_rows;
      options.fsync = false;
      auto stats =
          CorpusWriter::WriteDataset(*c.dataset, path.string(), options);
      ASSERT_TRUE(stats.ok()) << c.name << ": " << stats.status().ToString();
      EXPECT_EQ(stats->grouped, c.grouped) << c.name;

      auto image = CorpusWriter::EncodeDataset(*c.dataset);
      ASSERT_TRUE(image.ok()) << c.name << ": " << image.status().ToString();
      const std::string file_bytes = ReadFileBytes(path);
      EXPECT_EQ(image->size(), file_bytes.size()) << c.name;
      EXPECT_TRUE(std::string_view(image->data(), image->size()) == file_bytes)
          << c.name << ": in-memory image differs from the written file";
      std::filesystem::remove(path);
    }

    auto view = CorpusView::FromDataset(*c.dataset);
    ASSERT_TRUE(view.ok()) << c.name << ": " << view.status().ToString();
    EXPECT_EQ(view->grouped(), c.grouped) << c.name;
    EXPECT_EQ(view->window_count(), 0) << c.name;  // no verify windows
    EXPECT_EQ(view->user_count(), c.dataset->users().size()) << c.name;
    EXPECT_EQ(view->tweet_count(), c.dataset->tweets().size()) << c.name;
  }
}

TEST(CorpusImageTest, DatasetStudyMakesNoFilesystemCall) {
  // Every write faulted and every verify window flipped: an image that
  // went through a file (or through io::FaultFs at all) would fail or be
  // quarantined. The in-memory image runs the study untouched.
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::GeneratedData data = GenerateKorean(0.02);
  core::CorrelationStudy study(&db);
  FaultFs::Instance().Reset();
  const std::string clean =
      core::StudyReportJsonString(study.Run(data.dataset));

  FaultFsOptions options;
  options.seed = 11;
  options.write_error_rate = 1.0;
  options.page_flip_rate = 1.0;
  FaultFs::Instance().Configure(options);
  const FaultFsStats before = FaultFs::Instance().stats();
  core::StudyResult armed = study.Run(data.dataset);
  const FaultFsStats after = FaultFs::Instance().stats();
  FaultFs::Instance().Reset();

  EXPECT_EQ(core::StudyReportJsonString(armed), clean);
  EXPECT_EQ(armed.funnel.corrupt_window_users, 0);
  EXPECT_EQ(after.injected, before.injected);
  EXPECT_EQ(after.write_errors, before.write_errors);
  EXPECT_EQ(after.page_flips, before.page_flips);
  EXPECT_EQ(after.quarantined, before.quarantined);
  EXPECT_EQ(after.surfaced, before.surfaced);
}

TEST(CorpusImageTest, ReleasedRowsReadBackUnchanged) {
  // Open and the shard scans release tweet rows. On a mapped file the
  // pages re-fault from disk; an in-memory image must survive every
  // release byte for byte (MADV_DONTNEED would zero-fill anonymous
  // memory), so the columns must still equal the source dataset.
  twitter::GeneratedData data = GenerateKorean(0.05);
  const std::vector<twitter::Tweet>& tweets = data.dataset.tweets();
  auto view = CorpusView::FromDataset(data.dataset);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_EQ(view->tweet_count(), tweets.size());
  // Enough rows that even the narrowest (4-byte) tweet column spans
  // whole pages, so the release really drops some.
  ASSERT_GT(view->tweet_count() * sizeof(uint32_t), 2 * 4096u);

  auto mismatched_rows = [&] {
    int64_t bad = 0;
    for (size_t row = 0; row < tweets.size(); ++row) {
      const twitter::Tweet& want = tweets[row];
      const twitter::Tweet got = view->MaterializeTweet(row);
      bool same = got.id == want.id && got.user == want.user &&
                  got.time == want.time && got.text == want.text &&
                  got.gps.has_value() == want.gps.has_value();
      if (same && want.gps) {
        same = std::memcmp(&got.gps->lat, &want.gps->lat, 8) == 0 &&
               std::memcmp(&got.gps->lng, &want.gps->lng, 8) == 0;
      }
      if (!same) ++bad;
    }
    return bad;
  };
  EXPECT_EQ(mismatched_rows(), 0) << "before release";
  view->ReleaseTweetRows(0, view->tweet_count());
  EXPECT_EQ(mismatched_rows(), 0) << "after ReleaseTweetRows";
}

}  // namespace
}  // namespace stir::io
