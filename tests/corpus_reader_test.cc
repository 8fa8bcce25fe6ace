#include "io/corpus_reader.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/report.h"
#include "core/study.h"
#include "twitter/generator.h"

namespace stir::io {
namespace {

/// A name in the temp directory unique to this process: ctest runs each
/// case in its own process, possibly several at once.
std::filesystem::path TempPath(const char* name) {
  return std::filesystem::temp_directory_path() /
         (std::to_string(::getpid()) + "_" + name);
}

/// One generated corpus persisted in both formats. The fixture is built
/// once (SetUpTestSuite) because every test re-opens the same files.
class CorpusReaderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
    twitter::DatasetGenerator generator(
        &db, twitter::DatasetGenerator::KoreanConfig(0.02));
    data_ = new twitter::GeneratedData(generator.Generate());
    users_tsv_ = TempPath("reader_users.tsv").string();
    tweets_tsv_ = TempPath("reader_tweets.tsv").string();
    arena_ = TempPath("reader.corpus").string();
    ASSERT_TRUE(
        data_->dataset.SaveTsv(users_tsv_, tweets_tsv_).ok());
    ASSERT_TRUE(CorpusWriter::WriteDataset(data_->dataset, arena_).ok());
  }

  static void TearDownTestSuite() {
    for (const std::string* path :
         {&users_tsv_, &tweets_tsv_, &arena_}) {
      std::filesystem::remove(*path);
    }
    delete data_;
    data_ = nullptr;
  }

  static twitter::GeneratedData* data_;
  static std::string users_tsv_;
  static std::string tweets_tsv_;
  static std::string arena_;
};

twitter::GeneratedData* CorpusReaderTest::data_ = nullptr;
std::string CorpusReaderTest::users_tsv_;
std::string CorpusReaderTest::tweets_tsv_;
std::string CorpusReaderTest::arena_;

TEST_F(CorpusReaderTest, SniffsEveryFormatFromMagicBytes) {
  auto tsv = CorpusReader::SniffFormat(tweets_tsv_);
  ASSERT_TRUE(tsv.ok());
  EXPECT_EQ(*tsv, CorpusFormat::kTsv);
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

  CorpusSpec arena_spec;
  arena_spec.corpus_path = arena_;
  auto arena = CorpusReader::Open(arena_spec);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  EXPECT_EQ(arena->format(), CorpusFormat::kArenaV3);
  EXPECT_EQ(arena->dataset(), nullptr);  // not materialized yet
  auto materialized = arena->Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();

  const twitter::Dataset& d = data_->dataset;
  for (const CorpusReader* reader : {&*tsv, &*arena}) {
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
  // The tentpole guarantee: the same study over the TSV-decoded dataset
  // and the zero-copy v3 view renders the same bytes — funnel, group
  // table, and report.json.
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  core::CorrelationStudy study(&db);

  CorpusSpec tsv_spec;
  tsv_spec.users_path = users_tsv_;
  tsv_spec.tweets_path = tweets_tsv_;
  auto tsv = CorpusReader::Open(tsv_spec);
  ASSERT_TRUE(tsv.ok());
  core::StudyResult from_tsv = study.Run(*tsv->dataset());

  CorpusSpec arena_spec;
  arena_spec.corpus_path = arena_;
  auto arena = CorpusReader::Open(arena_spec);
  ASSERT_TRUE(arena.ok());
  core::StudyResult from_view = study.Run(arena->view());

  EXPECT_EQ(from_tsv.FunnelString(), from_view.FunnelString());
  EXPECT_EQ(from_tsv.GroupTableString(), from_view.GroupTableString());
  EXPECT_EQ(core::StudyReportJsonString(from_tsv),
            core::StudyReportJsonString(from_view));
  // A TSV pair opens into an in-memory view of its own.
  EXPECT_EQ(core::StudyReportJsonString(study.Run(tsv->view())),
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

TEST_F(CorpusReaderTest, RetiredColumnSnapshotIsRejectedByName) {
  // A leftover v2 tweet column snapshot (or its v1 predecessor) is a
  // typed error naming the retired format, not a TSV parse failure.
  for (const char* magic : {"STIRCOL1", "STIRCOL2"}) {
    const std::string path = TempPath("reader_retired.col").string();
    {
      std::ofstream out(path, std::ios::binary);
      out << magic << std::string(56, '\0');
    }
    auto sniffed = CorpusReader::SniffFormat(path);
    ASSERT_FALSE(sniffed.ok()) << magic;
    EXPECT_TRUE(sniffed.status().IsInvalidArgument()) << magic;
    EXPECT_NE(sniffed.status().message().find("retired"), std::string::npos)
        << sniffed.status().ToString();
    EXPECT_NE(sniffed.status().message().find(magic), std::string::npos)
        << sniffed.status().ToString();

    CorpusSpec spec;
    spec.users_path = users_tsv_;
    spec.tweets_path = path;
    auto opened = CorpusReader::Open(spec);
    ASSERT_FALSE(opened.ok()) << magic;
    EXPECT_TRUE(opened.status().IsInvalidArgument()) << magic;
    EXPECT_NE(opened.status().message().find("retired"), std::string::npos);

    CorpusSpec as_corpus;
    as_corpus.corpus_path = path;
    auto as_corpus_opened = CorpusReader::Open(as_corpus);
    ASSERT_FALSE(as_corpus_opened.ok()) << magic;
    EXPECT_NE(as_corpus_opened.status().message().find("retired"),
              std::string::npos);
    std::filesystem::remove(path);
  }
}

TEST_F(CorpusReaderTest, FormatNamesAreStable) {
  EXPECT_STREQ(CorpusFormatName(CorpusFormat::kTsv), "tsv");
  EXPECT_STREQ(CorpusFormatName(CorpusFormat::kArenaV3), "arena-v3");
}

}  // namespace
}  // namespace stir::io
