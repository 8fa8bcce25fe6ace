// Out-of-core corpus layer at volume. Two tiers share this binary:
//
//  * ArenaSmoke — a downscaled 1M-row variant (tens of thousands of
//    users, ~1M total tweets) that runs in seconds and stays in the
//    default ctest sweep, so tier-1 always exercises the streamed
//    writer + view study end to end.
//  * ArenaAtScale (ctest -L scale) — the heavyweight lane: hundreds of
//    thousands of users streamed to disk, studied off the mmap, and the
//    result byte-compared against the same study over the in-memory
//    generated dataset, which runs on an in-memory arena image of it
//    (CorpusView::FromDataset) rather than on the mapped file. The scale
//    label also runs under the ASan lane (see tests/CMakeLists.txt).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/report.h"
#include "core/study.h"
#include "io/corpus.h"
#include "io/corpus_reader.h"
#include "twitter/generator.h"

namespace stir::io {
namespace {

/// A name in the temp directory unique to this process: ctest runs each
/// case in its own process, possibly several at once.
std::filesystem::path TempPath(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         (std::to_string(::getpid()) + "_" + name);
}

// The heavyweight suite is opt-in: labels don't exclude tests from a
// plain `ctest` run, so the gate lives in the environment instead
// (STIR_SCALE_TESTS=1 ctest -L scale).
#define STIR_REQUIRE_SCALE_LANE()                                      \
  if (std::getenv("STIR_SCALE_TESTS") == nullptr) {                    \
    GTEST_SKIP() << "set STIR_SCALE_TESTS=1 to run the scale lane";    \
  }

/// Streams a Korean-preset corpus at `scale` to disk, runs the columnar
/// study off the view, and checks it against the in-memory dataset path.
void StreamStudyAndCompare(double scale, int threads,
                           const std::string& tag) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(scale));
  std::filesystem::path path = TempPath("corpus_scale_" + tag + ".corpus");

  {
    CorpusWriter writer(path.string());
    auto info = generator.GenerateToCorpus(&writer);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    auto stats = writer.Finish();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE(stats->grouped);
  }

  auto view = CorpusView::Open(path.string());
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  StudyConfig config;
  config.threads = threads;
  core::CorrelationStudy study(&db);
  core::CorrelationStudy threaded(&db, config);

  core::StudyResult from_view = threaded.Run(*view);
  twitter::GeneratedData data = generator.Generate();
  ASSERT_EQ(static_cast<size_t>(view->user_count()),
            data.dataset.users().size());
  core::StudyResult from_dataset = study.Run(data.dataset);

  EXPECT_EQ(from_dataset.FunnelString(), from_view.FunnelString());
  EXPECT_EQ(from_dataset.GroupTableString(), from_view.GroupTableString());
  EXPECT_EQ(core::StudyReportJsonString(from_dataset),
            core::StudyReportJsonString(from_view));
  std::filesystem::remove(path);
}

// Tier-1-safe smoke: ~10k users / ~2M total tweets, a few seconds.
TEST(CorpusScaleSmokeTest, ArenaSmoke) {
  StreamStudyAndCompare(0.2, 4, "smoke");
}

// The heavyweight lane (ctest -L scale): a quarter of the paper's crawl
// streamed out of core and studied in parallel off the mmap.
TEST(CorpusScaleTest, ArenaAtScale) {
  STIR_REQUIRE_SCALE_LANE();
  StreamStudyAndCompare(5.0, 8, "scale");
}

// Page-release hygiene at volume: a grouped corpus walked serially must
// keep working even after every released stride (ReleaseTweetRows is
// advisory, so re-reads after release still return the same bytes).
TEST(CorpusScaleTest, ReleasedPagesRereadConsistently) {
  STIR_REQUIRE_SCALE_LANE();
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(0.5));
  std::filesystem::path path = TempPath("corpus_scale_release.corpus");
  {
    CorpusWriter writer(path.string());
    auto info = generator.GenerateToCorpus(&writer);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto view = CorpusView::Open(path.string());
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  int64_t gps_before = 0;
  for (size_t row = 0; row < view->tweet_count(); ++row) {
    if (view->tweet_has_gps(row)) ++gps_before;
  }
  view->ReleaseTweetRows(0, view->tweet_count());
  int64_t gps_after = 0;
  for (size_t row = 0; row < view->tweet_count(); ++row) {
    if (view->tweet_has_gps(row)) ++gps_after;
  }
  EXPECT_EQ(gps_before, gps_after);
  EXPECT_EQ(gps_after, view->gps_tweet_count());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace stir::io
