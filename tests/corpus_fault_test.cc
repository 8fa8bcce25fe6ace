// Storage-fault behaviour of the mapped arena corpus (DESIGN.md §15):
// flipped pages quarantine verify windows instead of corrupting results,
// the refinement funnel drops quarantined users into
// funnel.drop.corrupt_window, truncation under the map SIGBUSes into
// quarantine rather than killing the process, and ENOSPC mid-spill
// surfaces from the writer with no snapshot left behind.

#include "io/corpus.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "core/study.h"
#include "io/fault_fs.h"
#include "twitter/dataset.h"

namespace stir::io {
namespace {

/// A name in the temp directory unique to this process: ctest runs each
/// case in its own process, possibly several at once.
std::filesystem::path TempPath(const char* name) {
  return std::filesystem::temp_directory_path() /
         (std::to_string(::getpid()) + "_" + name);
}

void AddUser(twitter::Dataset* dataset, twitter::UserId id,
             const std::string& handle, const std::string& profile,
             int64_t total) {
  twitter::User user;
  user.id = id;
  user.handle = handle;
  user.profile_location = profile;
  user.total_tweets = total;
  dataset->AddUser(user);
}

void AddTweet(twitter::Dataset* dataset, twitter::TweetId id,
              twitter::UserId user, SimTime time,
              std::optional<geo::LatLng> gps, const std::string& text) {
  twitter::Tweet tweet;
  tweet.id = id;
  tweet.user = user;
  tweet.time = time;
  tweet.gps = gps;
  tweet.text = text;
  dataset->AddTweet(std::move(tweet));
}

/// Grouped corpus (tweets in user order): three refinable users with
/// GPS tweets inside their profile districts, one tweetless user.
twitter::Dataset MakeGroupedDataset() {
  twitter::Dataset dataset;
  AddUser(&dataset, 1, "alpha", "Seoul Gangnam-gu", 4);
  AddUser(&dataset, 2, "beta", "Seoul Mapo-gu", 3);
  AddUser(&dataset, 3, "gamma", "Seoul Gangnam-gu", 2);
  AddUser(&dataset, 4, "delta", "Uiwang-si", 0);  // no tweets
  AddTweet(&dataset, 100, 1, 10, geo::LatLng{37.497, 127.027}, "coffee");
  AddTweet(&dataset, 101, 1, 20, geo::LatLng{37.498, 127.028}, "lunch");
  AddTweet(&dataset, 102, 2, 30, geo::LatLng{37.556, 126.945}, "river");
  AddTweet(&dataset, 103, 3, 40, geo::LatLng{37.499, 127.029}, "gym");
  return dataset;
}

/// Interleaved variant of the same users: forces the explicit CSR
/// permutation, exercising the per-row quarantine probe in refinement.
twitter::Dataset MakeInterleavedDataset() {
  twitter::Dataset dataset;
  AddUser(&dataset, 1, "alpha", "Seoul Gangnam-gu", 4);
  AddUser(&dataset, 2, "beta", "Seoul Mapo-gu", 3);
  AddUser(&dataset, 3, "gamma", "Seoul Gangnam-gu", 2);
  AddUser(&dataset, 4, "delta", "Uiwang-si", 0);
  AddTweet(&dataset, 100, 1, 10, geo::LatLng{37.497, 127.027}, "coffee");
  AddTweet(&dataset, 102, 2, 30, geo::LatLng{37.556, 126.945}, "river");
  AddTweet(&dataset, 101, 1, 20, geo::LatLng{37.498, 127.028}, "lunch");
  AddTweet(&dataset, 103, 3, 40, geo::LatLng{37.499, 127.029}, "gym");
  return dataset;
}

class CorpusFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultFs::Instance().Reset(); }
  void TearDown() override { FaultFs::Instance().Reset(); }
};

TEST_F(CorpusFaultTest, PageFlipQuarantinesWindows) {
  std::filesystem::path path = TempPath("corpus_fault_flip.corpus");
  ASSERT_TRUE(
      CorpusWriter::WriteDataset(MakeGroupedDataset(), path.string()).ok());
  auto view = CorpusView::Open(path.string());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_GE(view->window_count(), 1);
  EXPECT_EQ(view->quarantined_windows(), 0);
  EXPECT_FALSE(view->TweetRowsQuarantined(0, view->tweet_count()));

  FaultFsOptions options;
  options.seed = 11;
  options.page_flip_rate = 1.0;  // Every re-verified window reads corrupt.
  FaultFs::Instance().Configure(options);
  EXPECT_EQ(view->ReverifyAllWindows(), view->window_count());
  EXPECT_EQ(view->quarantined_windows(), view->window_count());
  for (int64_t w = 0; w < view->window_count(); ++w) {
    EXPECT_TRUE(view->WindowQuarantined(w));
    // Sticky: a second re-verify still reports the window bad.
    EXPECT_FALSE(view->ReverifyWindow(w));
  }
  EXPECT_TRUE(view->TweetRowsQuarantined(0, view->tweet_count()));

  const FaultFsStats stats = FaultFs::Instance().stats();
  EXPECT_EQ(stats.page_flips, view->window_count());
  EXPECT_EQ(stats.quarantined, stats.injected);
  EXPECT_EQ(stats.surfaced, 0);
  std::filesystem::remove(path);
}

TEST_F(CorpusFaultTest, RefinementDropsQuarantinedUsersIntoFunnel) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  StudyConfig config;
  config.obs.enable_metrics = true;
  core::CorrelationStudy study(&db, config);

  // Both CSR layouts: grouped corpora take the O(1) range check,
  // interleaved ones probe each permuted row.
  const struct {
    const char* name;
    twitter::Dataset dataset;
  } cases[] = {{"grouped", MakeGroupedDataset()},
               {"interleaved", MakeInterleavedDataset()}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::filesystem::path path = TempPath("corpus_fault_funnel.corpus");
    ASSERT_TRUE(CorpusWriter::WriteDataset(c.dataset, path.string()).ok());
    auto view = CorpusView::Open(path.string());
    ASSERT_TRUE(view.ok()) << view.status().ToString();

    // Fault-free: everything refines, the corrupt-window drop is zero
    // and its metric is never registered.
    core::StudyResult clean = study.Run(*view);
    EXPECT_EQ(clean.funnel.corrupt_window_users, 0);
    EXPECT_EQ(clean.funnel.final_users, 3);
    EXPECT_EQ(clean.metrics.counter("funnel.drop.corrupt_window"), 0);
    EXPECT_EQ(clean.metrics.counters.count("funnel.drop.corrupt_window"),
              0u);

    // Quarantine every window: all three tweet-holding users are dropped
    // whole; the tweetless user never touches a quarantined row.
    FaultFsOptions options;
    options.seed = 11;
    options.page_flip_rate = 1.0;
    FaultFs::Instance().Configure(options);
    ASSERT_EQ(view->ReverifyAllWindows(), view->window_count());
    core::StudyResult faulted = study.Run(*view);
    EXPECT_EQ(faulted.funnel.crawled_users, 4);
    EXPECT_EQ(faulted.funnel.corrupt_window_users, 3);
    EXPECT_EQ(faulted.funnel.final_users, 0);
    EXPECT_EQ(faulted.metrics.counter("funnel.drop.corrupt_window"), 3);

    FaultFs::Instance().Reset();
    std::filesystem::remove(path);
  }
}

TEST_F(CorpusFaultTest, OpenRejectsFlippedByte) {
  std::filesystem::path path = TempPath("corpus_fault_bitrot.corpus");
  ASSERT_TRUE(
      CorpusWriter::WriteDataset(MakeGroupedDataset(), path.string()).ok());
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, kCorpusHeaderSize + 16);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(kCorpusHeaderSize + 10));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(kCorpusHeaderSize + 10));
    f.put(static_cast<char>(byte ^ 0x40));
  }
  auto view = CorpusView::Open(path.string());
  EXPECT_FALSE(view.ok());
  std::filesystem::remove(path);
}

TEST_F(CorpusFaultTest, TruncationUnderMapQuarantinesInsteadOfCrashing) {
  // A corpus mapped, then truncated behind the map: touching the lost
  // pages raises SIGBUS, which the re-verify guard must absorb into
  // quarantine — a crash here is the bug the guard exists to prevent.
  twitter::Dataset dataset = MakeGroupedDataset();
  const std::string filler(200, 'x');
  for (int i = 0; i < 50; ++i) {
    AddTweet(&dataset, 200 + i, 3, 100 + i, std::nullopt, filler);
  }
  std::filesystem::path path = TempPath("corpus_fault_truncate.corpus");
  ASSERT_TRUE(CorpusWriter::WriteDataset(dataset, path.string()).ok());
  ASSERT_GT(std::filesystem::file_size(path), 8192u);

  auto view = CorpusView::Open(path.string());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_GE(view->window_count(), 1);
  std::filesystem::resize_file(path, 4096);

  EXPECT_EQ(view->ReverifyAllWindows(), view->window_count());
  EXPECT_EQ(view->quarantined_windows(), view->window_count());
  EXPECT_TRUE(view->TweetRowsQuarantined(0, view->tweet_count()));
  // The external (non-injected) corruption still balances the fault
  // ledger: noted as injected + quarantined, never surfaced.
  const FaultFsStats stats = FaultFs::Instance().stats();
  EXPECT_GE(stats.quarantined, 1);
  EXPECT_EQ(stats.quarantined, stats.injected);
  std::filesystem::remove(path);
}

TEST_F(CorpusFaultTest, EnospcMidSpillSurfacesAndLeavesNoSnapshot) {
  FaultFsOptions options;
  options.seed = 4;
  options.enospc_after_bytes = 512;  // Fills during the spill files.
  FaultFs::Instance().Configure(options);

  std::filesystem::path path = TempPath("corpus_fault_enospc.corpus");
  std::filesystem::remove(path);
  Status status = Status::OK();
  {
    CorpusWriterOptions writer_options;
    writer_options.tweet_spill_rows = 64;
    CorpusWriter writer(path.string(), writer_options);
    twitter::User user;
    user.id = 1;
    user.handle = "alpha";
    user.profile_location = "Seoul Gangnam-gu";
    user.total_tweets = 200;
    ASSERT_TRUE(writer.AddUser(user).ok());
    for (int i = 0; i < 200 && status.ok(); ++i) {
      twitter::Tweet tweet;
      tweet.id = 1000 + i;
      tweet.user = 1;
      tweet.time = i;
      tweet.gps = geo::LatLng{37.497, 127.027};
      tweet.text = std::string(64, 'x');
      status = writer.AddTweet(std::move(tweet));
    }
    if (status.ok()) status = writer.Finish().status();
  }
  EXPECT_FALSE(status.ok()) << "a 512-byte disk held a 200-tweet corpus";

  const FaultFsStats stats = FaultFs::Instance().stats();
  EXPECT_GT(stats.enospc, 0);
  EXPECT_EQ(stats.surfaced, stats.injected);
  FaultFs::Instance().Reset();
  // Atomicity: the failed build left no snapshot (and no temp siblings).
  EXPECT_FALSE(std::filesystem::exists(path));
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(
           path.parent_path(), ec)) {
    EXPECT_EQ(entry.path().string().find(path.string() + "."),
              std::string::npos)
        << "leftover temp sibling: " << entry.path();
  }
}

}  // namespace
}  // namespace stir::io
