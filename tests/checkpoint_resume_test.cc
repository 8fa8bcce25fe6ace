// Crash-safe checkpoint/resume tests (DESIGN.md §9): checkpoint
// serialization, fingerprint validation, halt-at-N simulated crashes
// resumed to results identical to an uninterrupted run, journal-warmed
// zero-quota resumes, and degrade-to-fresh on corrupt durable state.

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/report.h"
#include "core/study.h"
#include "geo/geocode_journal.h"
#include "io/atomic_file.h"
#include "io/corpus.h"
#include "twitter/generator.h"

namespace stir::core {
namespace {

class CheckpointResumeTest : public ::testing::Test {
 protected:
  CheckpointResumeTest() : db_(geo::AdminDb::KoreanDistricts()) {}

  twitter::GeneratedData Generate(double scale) {
    twitter::DatasetGenerator generator(
        &db_, twitter::DatasetGenerator::KoreanConfig(scale));
    return generator.Generate();
  }

  /// Fresh checkpoint directory under the test temp dir.
  std::string MakeCheckpointDir(const std::string& name) {
    std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    EXPECT_TRUE(io::EnsureDirectory(dir).ok());
    return dir;
  }

  StudyResult Run(const twitter::Dataset& dataset, const StudyConfig& config) {
    CorrelationStudy study(&db_, config);
    return study.Run(dataset);
  }

  /// Byte-level result equality via the versioned JSON report (covers the
  /// funnel, every group row, and the per-user tables).
  static void ExpectSameResult(const StudyResult& a, const StudyResult& b) {
    EXPECT_EQ(StudyReportJsonString(a), StudyReportJsonString(b));
  }

  const geo::AdminDb& db_;
};

RefinedUser MakeRefined(twitter::UserId user, geo::RegionId profile,
                        std::vector<geo::RegionId> regions) {
  RefinedUser r;
  r.user = user;
  r.profile_region = profile;
  r.tweet_regions = std::move(regions);
  r.total_tweets = static_cast<int64_t>(r.tweet_regions.size()) * 3;
  return r;
}

TEST(StudyCheckpointTest, SerializeRoundTripInProgress) {
  StudyCheckpoint ckpt;
  ckpt.stage = StudyCheckpoint::kRefinementInProgress;
  ckpt.dataset_fingerprint = 0x1122334455667788ull;
  ckpt.config_fingerprint = 0x99AABBCCDDEEFF00ull;
  ckpt.fault_next_index = 17;
  ShardProgress shard0;
  shard0.next_user = 12;
  shard0.done = false;
  shard0.stats.crawled_users = 12;
  shard0.stats.well_defined_users = 7;
  shard0.stats.gps_tweets = 40;
  shard0.stats.geocode_retried = 3;
  shard0.stats.backoff_ms = 250;
  shard0.refined.push_back(MakeRefined(5, 2, {1, 2, 2}));
  ShardProgress shard1;
  shard1.next_user = 30;
  shard1.done = true;
  shard1.refined.push_back(MakeRefined(9, 0, {}));
  ckpt.shards = {shard0, shard1};

  auto restored = StudyCheckpoint::Deserialize(ckpt.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->stage, StudyCheckpoint::kRefinementInProgress);
  EXPECT_EQ(restored->dataset_fingerprint, ckpt.dataset_fingerprint);
  EXPECT_EQ(restored->config_fingerprint, ckpt.config_fingerprint);
  EXPECT_EQ(restored->fault_next_index, 17);
  ASSERT_EQ(restored->shards.size(), 2u);
  EXPECT_EQ(restored->shards[0].next_user, 12);
  EXPECT_FALSE(restored->shards[0].done);
  EXPECT_EQ(restored->shards[0].stats.crawled_users, 12);
  EXPECT_EQ(restored->shards[0].stats.geocode_retried, 3);
  EXPECT_EQ(restored->shards[0].stats.backoff_ms, 250);
  ASSERT_EQ(restored->shards[0].refined.size(), 1u);
  EXPECT_EQ(restored->shards[0].refined[0].user, 5);
  EXPECT_EQ(restored->shards[0].refined[0].tweet_regions,
            (std::vector<geo::RegionId>{1, 2, 2}));
  EXPECT_TRUE(restored->shards[1].done);
  EXPECT_TRUE(restored->shards[1].refined[0].tweet_regions.empty());
}

TEST(StudyCheckpointTest, SerializeRoundTripDone) {
  StudyCheckpoint ckpt;
  ckpt.stage = StudyCheckpoint::kRefinementDone;
  ckpt.funnel.crawled_users = 100;
  ckpt.funnel.final_users = 9;
  ckpt.funnel.fault_injection_enabled = true;
  ckpt.funnel.geocode_faulted = 4;
  ckpt.refined.push_back(MakeRefined(1, 3, {3, 3}));

  auto restored = StudyCheckpoint::Deserialize(ckpt.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->stage, StudyCheckpoint::kRefinementDone);
  EXPECT_EQ(restored->funnel.crawled_users, 100);
  EXPECT_EQ(restored->funnel.final_users, 9);
  EXPECT_TRUE(restored->funnel.fault_injection_enabled);
  EXPECT_EQ(restored->funnel.geocode_faulted, 4);
  ASSERT_EQ(restored->refined.size(), 1u);
  EXPECT_EQ(restored->refined[0].profile_region, 3);
}

TEST(StudyCheckpointTest, DeserializeRejectsCorruptPayload) {
  StudyCheckpoint ckpt;
  ckpt.refined.push_back(MakeRefined(1, 3, {3, 3}));
  std::string bytes = ckpt.Serialize();
  EXPECT_FALSE(StudyCheckpoint::Deserialize("garbage").ok());
  EXPECT_FALSE(StudyCheckpoint::Deserialize(
                   std::string_view(bytes).substr(0, bytes.size() / 2))
                   .ok());
  EXPECT_FALSE(StudyCheckpoint::Deserialize(bytes + "trailing").ok());
}

TEST_F(CheckpointResumeTest, FingerprintsDetectChangedInputs) {
  twitter::GeneratedData data = Generate(0.02);
  twitter::GeneratedData other = Generate(0.03);
  auto view = io::CorpusView::FromDataset(data.dataset);
  auto same = io::CorpusView::FromDataset(data.dataset);
  auto other_view = io::CorpusView::FromDataset(other.dataset);
  ASSERT_TRUE(view.ok() && same.ok() && other_view.ok());
  EXPECT_EQ(CorpusFingerprint(*view), CorpusFingerprint(*same));
  EXPECT_NE(CorpusFingerprint(*view), CorpusFingerprint(*other_view));

  // A corpus file written from the same dataset fingerprints the same as
  // its in-memory image, so a checkpoint resumes across the two.
  const std::string path = MakeCheckpointDir("fingerprint") + "/c.stir";
  ASSERT_TRUE(io::CorpusWriter::WriteDataset(data.dataset, path).ok());
  auto file_view = io::CorpusView::Open(path);
  ASSERT_TRUE(file_view.ok()) << file_view.status().ToString();
  EXPECT_EQ(CorpusFingerprint(*file_view), CorpusFingerprint(*view));

  StudyConfig config;
  uint64_t base = ConfigFingerprint(config);
  EXPECT_EQ(base, ConfigFingerprint(config));

  StudyConfig faulted = config;
  faulted.fault.error_rate = 0.25;
  EXPECT_NE(base, ConfigFingerprint(faulted));

  StudyConfig threaded = config;
  threaded.threads = 4;
  EXPECT_NE(base, ConfigFingerprint(threaded));

  // Crash point, durability, and observability knobs must NOT shift the
  // fingerprint: the crashed run and its resume differ in exactly those.
  StudyConfig crashy = config;
  crashy.fault.crash_after = 40;
  crashy.durability.checkpoint_dir = "/some/dir";
  crashy.durability.resume = true;
  crashy.obs.enable_metrics = true;
  EXPECT_EQ(base, ConfigFingerprint(crashy));
}

TEST_F(CheckpointResumeTest, CheckpointManagerSaveLoad) {
  std::string dir = MakeCheckpointDir("ckpt_mgr");
  CheckpointManager manager(dir, /*fsync=*/false);
  StudyCheckpoint ckpt;
  ckpt.stage = StudyCheckpoint::kRefinementDone;
  ckpt.funnel.final_users = 5;
  ASSERT_TRUE(manager.Save(ckpt).ok());
  EXPECT_EQ(manager.writes(), 1);

  auto loaded = manager.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->funnel.final_users, 5);

  // Missing checkpoint is IOError; corrupt is InvalidArgument.
  CheckpointManager empty(MakeCheckpointDir("ckpt_mgr_empty"), false);
  EXPECT_EQ(empty.Load().status().code(), StatusCode::kIOError);
  {
    std::ofstream out(manager.checkpoint_path(),
                      std::ios::binary | std::ios::trunc);
    out << "SHORT";
  }
  EXPECT_EQ(manager.Load().status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointResumeTest, HaltAndResumeMatchesUninterruptedSerial) {
  twitter::GeneratedData data = Generate(0.03);
  StudyConfig config;

  StudyResult clean = Run(data.dataset, config);
  ASSERT_GT(clean.final_users, 0);

  std::string dir = MakeCheckpointDir("resume_serial");
  StudyConfig halted = config;
  halted.durability.checkpoint_dir = dir;
  halted.durability.fsync = false;
  halted.durability.checkpoint_every_users = 8;
  halted.durability.halt_after_users = 25;
  StudyResult partial = Run(data.dataset, halted);
  EXPECT_TRUE(partial.incomplete);

  StudyConfig resumed = config;
  resumed.durability.checkpoint_dir = dir;
  resumed.durability.fsync = false;
  resumed.durability.resume = true;
  StudyResult final_result = Run(data.dataset, resumed);
  EXPECT_FALSE(final_result.incomplete);
  ExpectSameResult(clean, final_result);
}

TEST_F(CheckpointResumeTest, HaltAndResumeMatchesUninterruptedThreaded) {
  twitter::GeneratedData data = Generate(0.03);
  StudyConfig config;
  config.threads = 4;

  StudyResult clean = Run(data.dataset, config);

  std::string dir = MakeCheckpointDir("resume_threaded");
  StudyConfig halted = config;
  halted.durability.checkpoint_dir = dir;
  halted.durability.fsync = false;
  halted.durability.checkpoint_every_users = 4;
  halted.durability.halt_after_users = 40;
  StudyResult partial = Run(data.dataset, halted);
  EXPECT_TRUE(partial.incomplete);

  StudyConfig resumed = config;
  resumed.durability.checkpoint_dir = dir;
  resumed.durability.fsync = false;
  resumed.durability.resume = true;
  StudyResult final_result = Run(data.dataset, resumed);
  ExpectSameResult(clean, final_result);
}

TEST_F(CheckpointResumeTest, HaltAndResumeWithFaultInjection) {
  twitter::GeneratedData data = Generate(0.03);
  StudyConfig config;
  config.fault.error_rate = 0.2;
  config.fault.seed = 7;
  config.retry.max_attempts = 2;

  StudyResult clean = Run(data.dataset, config);

  std::string dir = MakeCheckpointDir("resume_faulty");
  StudyConfig halted = config;
  halted.durability.checkpoint_dir = dir;
  halted.durability.fsync = false;
  halted.durability.checkpoint_every_users = 8;
  halted.durability.halt_after_users = 30;
  StudyResult partial = Run(data.dataset, halted);
  EXPECT_TRUE(partial.incomplete);

  StudyConfig resumed = config;
  resumed.durability.checkpoint_dir = dir;
  resumed.durability.fsync = false;
  resumed.durability.resume = true;
  StudyResult final_result = Run(data.dataset, resumed);
  // The fault schedule continues from the checkpointed sequence position,
  // so the faulty resume still reproduces the uninterrupted faulty run.
  ExpectSameResult(clean, final_result);
  EXPECT_EQ(final_result.funnel.geocode_faulted, clean.funnel.geocode_faulted);
}

TEST_F(CheckpointResumeTest, ResumeAfterCompleteSkipsPipeline) {
  twitter::GeneratedData data = Generate(0.02);
  StudyConfig config;

  std::string dir = MakeCheckpointDir("resume_done");
  StudyConfig first = config;
  first.durability.checkpoint_dir = dir;
  first.durability.fsync = false;
  StudyResult clean = Run(data.dataset, first);

  // Re-running with --resume after completion must not re-geocode: the
  // kRefinementDone checkpoint short-circuits the pipeline, so even a
  // zero-quota geocoder reproduces the report.
  StudyConfig resumed = config;
  resumed.durability.checkpoint_dir = dir;
  resumed.durability.fsync = false;
  resumed.durability.resume = true;
  resumed.geocoder.quota = 0;
  StudyResult final_result = Run(data.dataset, resumed);
  ExpectSameResult(clean, final_result);
}

TEST_F(CheckpointResumeTest, JournalWarmResumeSpendsNoQuota) {
  twitter::GeneratedData data = Generate(0.02);
  StudyConfig config;

  std::string dir = MakeCheckpointDir("resume_journal_only");
  StudyConfig first = config;
  first.durability.checkpoint_dir = dir;
  first.durability.fsync = false;
  StudyResult clean = Run(data.dataset, first);
  ASSERT_GT(clean.final_users, 0);

  // Drop the checkpoint but keep the geocode journal: the resumed run
  // re-refines every user, but every previously-resolved lookup is a
  // journal-warmed cache hit — zero quota spent.
  ASSERT_EQ(std::remove((dir + "/study.ckpt").c_str()), 0);
  auto replay = geo::GeocodeJournal::Replay(dir + "/geocode.journal");
  ASSERT_TRUE(replay.usable) << replay.error;
  ASSERT_GT(replay.entries.size(), 0u);

  StudyConfig resumed = config;
  resumed.durability.checkpoint_dir = dir;
  resumed.durability.fsync = false;
  resumed.durability.resume = true;
  resumed.geocoder.quota = 0;
  StudyResult final_result = Run(data.dataset, resumed);
  ExpectSameResult(clean, final_result);
}

TEST_F(CheckpointResumeTest, CorruptDurableStateDegradesToFresh) {
  twitter::GeneratedData data = Generate(0.02);
  StudyConfig config;
  StudyResult clean = Run(data.dataset, config);

  std::string dir = MakeCheckpointDir("resume_corrupt");
  {
    std::ofstream journal(dir + "/geocode.journal", std::ios::binary);
    journal << "garbage that is not a journal at all.............";
    std::ofstream ckpt(dir + "/study.ckpt", std::ios::binary);
    ckpt << "SHORT";
  }
  StudyConfig resumed = config;
  resumed.durability.checkpoint_dir = dir;
  resumed.durability.fsync = false;
  resumed.durability.resume = true;
  StudyResult final_result = Run(data.dataset, resumed);
  EXPECT_FALSE(final_result.incomplete);
  ExpectSameResult(clean, final_result);
}

TEST_F(CheckpointResumeTest, MismatchedFingerprintRestartsFresh) {
  twitter::GeneratedData data = Generate(0.02);
  twitter::GeneratedData other = Generate(0.03);
  StudyConfig config;

  std::string dir = MakeCheckpointDir("resume_mismatch");
  StudyConfig halted = config;
  halted.durability.checkpoint_dir = dir;
  halted.durability.fsync = false;
  halted.durability.halt_after_users = 10;
  StudyResult partial = Run(data.dataset, halted);
  EXPECT_TRUE(partial.incomplete);

  // Resuming against a different dataset must not splice mismatched
  // progress: the checkpoint is rejected and the run completes fresh.
  StudyResult other_clean = Run(other.dataset, config);
  StudyConfig resumed = config;
  resumed.durability.checkpoint_dir = dir;
  resumed.durability.fsync = false;
  resumed.durability.resume = true;
  StudyResult final_result = Run(other.dataset, resumed);
  EXPECT_FALSE(final_result.incomplete);
  EXPECT_EQ(final_result.final_users, other_clean.final_users);
  EXPECT_EQ(final_result.funnel.crawled_users,
            other_clean.funnel.crawled_users);
}

TEST_F(CheckpointResumeTest, CheckpointingOffLeavesResultIdentical) {
  twitter::GeneratedData data = Generate(0.02);
  StudyConfig config;
  StudyResult off = Run(data.dataset, config);

  StudyConfig on = config;
  on.durability.checkpoint_dir = MakeCheckpointDir("identity_on");
  on.durability.fsync = false;
  StudyResult with_ckpt = Run(data.dataset, on);
  ExpectSameResult(off, with_ckpt);
}

}  // namespace
}  // namespace stir::core
