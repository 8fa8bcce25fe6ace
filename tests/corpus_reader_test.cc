#include "io/corpus_reader.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/report.h"
#include "core/study.h"
#include "twitter/column_store.h"
#include "twitter/generator.h"

namespace stir::io {
namespace {

/// A name in the temp directory unique to this process: ctest runs each
/// case in its own process, possibly several at once.
std::filesystem::path TempPath(const char* name) {
  return std::filesystem::temp_directory_path() /
         (std::to_string(::getpid()) + "_" + name);
}

/// One generated corpus persisted in all three formats. The fixture is
/// built once (SetUpTestSuite) because every test re-opens the same
/// files.
class CorpusReaderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
    twitter::DatasetGenerator generator(
        &db, twitter::DatasetGenerator::KoreanConfig(0.02));
    data_ = new twitter::GeneratedData(generator.Generate());
    users_tsv_ = TempPath("reader_users.tsv").string();
    tweets_tsv_ = TempPath("reader_tweets.tsv").string();
    tweets_col_ = TempPath("reader_tweets.col").string();
    arena_ = TempPath("reader.corpus").string();
    ASSERT_TRUE(
        data_->dataset.SaveTsv(users_tsv_, tweets_tsv_).ok());
    ASSERT_TRUE(twitter::TweetColumnStore::FromDataset(data_->dataset)
                    .Save(tweets_col_)
                    .ok());
    ASSERT_TRUE(CorpusWriter::WriteDataset(data_->dataset, arena_).ok());
  }

  static void TearDownTestSuite() {
    for (const std::string* path :
         {&users_tsv_, &tweets_tsv_, &tweets_col_, &arena_}) {
      std::filesystem::remove(*path);
    }
    delete data_;
    data_ = nullptr;
  }

  static twitter::GeneratedData* data_;
  static std::string users_tsv_;
  static std::string tweets_tsv_;
  static std::string tweets_col_;
  static std::string arena_;
};

twitter::GeneratedData* CorpusReaderTest::data_ = nullptr;
std::string CorpusReaderTest::users_tsv_;
std::string CorpusReaderTest::tweets_tsv_;
std::string CorpusReaderTest::tweets_col_;
std::string CorpusReaderTest::arena_;

TEST_F(CorpusReaderTest, SniffsEveryFormatFromMagicBytes) {
  auto tsv = CorpusReader::SniffFormat(tweets_tsv_);
  ASSERT_TRUE(tsv.ok());
  EXPECT_EQ(*tsv, CorpusFormat::kTsv);
  auto col = CorpusReader::SniffFormat(tweets_col_);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(*col, CorpusFormat::kColumnV2);
  auto arena = CorpusReader::SniffFormat(arena_);
  ASSERT_TRUE(arena.ok());
  EXPECT_EQ(*arena, CorpusFormat::kArenaV3);
  EXPECT_FALSE(CorpusReader::SniffFormat("no/such/file").ok());
}

TEST_F(CorpusReaderTest, EveryFormatDecodesTheSameCorpus) {
  CorpusSpec tsv_spec;
  tsv_spec.users_path = users_tsv_;
  tsv_spec.tweets_path = tweets_tsv_;
  auto tsv = CorpusReader::Open(tsv_spec);
  ASSERT_TRUE(tsv.ok()) << tsv.status().ToString();
  EXPECT_EQ(tsv->format(), CorpusFormat::kTsv);
  ASSERT_NE(tsv->dataset(), nullptr);

  CorpusSpec col_spec;
  col_spec.users_path = users_tsv_;
  col_spec.tweets_path = tweets_col_;
  auto col = CorpusReader::Open(col_spec);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  EXPECT_EQ(col->format(), CorpusFormat::kColumnV2);
  ASSERT_NE(col->dataset(), nullptr);

  CorpusSpec arena_spec;
  arena_spec.corpus_path = arena_;
  auto arena = CorpusReader::Open(arena_spec);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  EXPECT_EQ(arena->format(), CorpusFormat::kArenaV3);
  ASSERT_TRUE(arena->has_view());
  EXPECT_EQ(arena->dataset(), nullptr);  // not materialized yet
  auto materialized = arena->Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();

  const twitter::Dataset& d = data_->dataset;
  for (const CorpusReader* reader : {&*tsv, &*col, &*arena}) {
    EXPECT_EQ(reader->dataset()->users().size(), d.users().size());
    EXPECT_EQ(reader->dataset()->tweets().size(), d.tweets().size());
    EXPECT_EQ(reader->dataset()->gps_tweet_count(), d.gps_tweet_count());
    EXPECT_EQ(reader->dataset()->total_tweet_count(),
              d.total_tweet_count());
  }
}

TEST_F(CorpusReaderTest, MisroutedPathsAreRejectedWithGuidance) {
  // An arena corpus handed in as tweets_path, and a TSV handed in as
  // corpus_path, both fail with messages pointing at the right slot.
  CorpusSpec wrong_slot;
  wrong_slot.users_path = users_tsv_;
  wrong_slot.tweets_path = arena_;
  auto a = CorpusReader::Open(wrong_slot);
  ASSERT_FALSE(a.ok());
  EXPECT_NE(a.status().ToString().find("corpus_path"), std::string::npos);

  CorpusSpec tsv_as_corpus;
  tsv_as_corpus.corpus_path = tweets_tsv_;
  auto b = CorpusReader::Open(tsv_as_corpus);
  ASSERT_FALSE(b.ok());

  CorpusSpec both;
  both.corpus_path = arena_;
  both.users_path = users_tsv_;
  both.tweets_path = tweets_tsv_;
  EXPECT_FALSE(CorpusReader::Open(both).ok());

  CorpusSpec neither;
  EXPECT_FALSE(CorpusReader::Open(neither).ok());
}

TEST_F(CorpusReaderTest, StudyReportsAreByteIdenticalAcrossFormats) {
  // The tentpole guarantee: the same study over the TSV-decoded dataset,
  // the v2-decoded dataset, and the zero-copy v3 view renders the same
  // bytes — funnel, group table, and report.json.
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  core::CorrelationStudy study(&db);

  CorpusSpec tsv_spec;
  tsv_spec.users_path = users_tsv_;
  tsv_spec.tweets_path = tweets_tsv_;
  auto tsv = CorpusReader::Open(tsv_spec);
  ASSERT_TRUE(tsv.ok());
  core::StudyResult from_tsv = study.Run(*tsv->dataset());

  CorpusSpec col_spec;
  col_spec.users_path = users_tsv_;
  col_spec.tweets_path = tweets_col_;
  auto col = CorpusReader::Open(col_spec);
  ASSERT_TRUE(col.ok());
  core::StudyResult from_col = study.Run(*col->dataset());

  CorpusSpec arena_spec;
  arena_spec.corpus_path = arena_;
  auto arena = CorpusReader::Open(arena_spec);
  ASSERT_TRUE(arena.ok());
  core::StudyResult from_view = study.Run(arena->view());

  EXPECT_EQ(from_tsv.FunnelString(), from_col.FunnelString());
  EXPECT_EQ(from_tsv.FunnelString(), from_view.FunnelString());
  EXPECT_EQ(from_tsv.GroupTableString(), from_col.GroupTableString());
  EXPECT_EQ(from_tsv.GroupTableString(), from_view.GroupTableString());
  EXPECT_EQ(core::StudyReportJsonString(from_tsv),
            core::StudyReportJsonString(from_view));
  EXPECT_EQ(core::StudyReportJsonString(from_col),
            core::StudyReportJsonString(from_view));
}

TEST_F(CorpusReaderTest, ColumnarStudyMatchesDatasetStudyInParallel) {
  // Sharded refinement over the view merges in the same order as the
  // dataset path, faults and all.
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  StudyConfig config;
  config.threads = 4;
  config.fault.error_rate = 0.1;
  config.retry.max_attempts = 2;
  core::CorrelationStudy study(&db, config);

  core::StudyResult from_dataset = study.Run(data_->dataset);

  CorpusSpec arena_spec;
  arena_spec.corpus_path = arena_;
  auto arena = CorpusReader::Open(arena_spec);
  ASSERT_TRUE(arena.ok());
  core::StudyResult from_view = study.Run(arena->view());

  EXPECT_EQ(from_dataset.FunnelString(), from_view.FunnelString());
  EXPECT_EQ(from_dataset.GroupTableString(), from_view.GroupTableString());
  EXPECT_EQ(core::StudyReportJsonString(from_dataset),
            core::StudyReportJsonString(from_view));
}

TEST_F(CorpusReaderTest, TakeDatasetMaterializesAndMoves) {
  CorpusSpec arena_spec;
  arena_spec.corpus_path = arena_;
  auto arena = CorpusReader::Open(arena_spec);
  ASSERT_TRUE(arena.ok());
  auto taken = arena->TakeDataset();
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(taken->users().size(), data_->dataset.users().size());
  EXPECT_EQ(arena->dataset(), nullptr);  // moved out
}

TEST_F(CorpusReaderTest, FormatNamesAreStable) {
  EXPECT_STREQ(CorpusFormatName(CorpusFormat::kTsv), "tsv");
  EXPECT_STREQ(CorpusFormatName(CorpusFormat::kColumnV2), "column-v2");
  EXPECT_STREQ(CorpusFormatName(CorpusFormat::kArenaV3), "arena-v3");
}

}  // namespace
}  // namespace stir::io
