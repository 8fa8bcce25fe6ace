// StreamEngine unit coverage: journal record round-trips, the epoch /
// generation bookkeeping, ingest validation and append atomicity,
// crash-resume from the stream journal (including mid-epoch tails and
// torn bytes), the stream.* metrics surface, and the front end's
// pre-ingest from a corpus view (tools/front_end.h). The differential
// batch-equivalence proof lives in stream_equivalence_test.cc.

#include "stream/engine.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/study.h"
#include "front_end.h"
#include "geo/admin_db.h"
#include "gtest/gtest.h"
#include "io/atomic_file.h"
#include "io/corpus.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/study_index.h"
#include "stream/stream_journal.h"
#include "twitter/api.h"
#include "twitter/generator.h"

namespace stir::stream {
namespace {

using geo::AdminDb;

class StreamEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = &AdminDb::KoreanDistricts();
    twitter::DatasetGenerator generator(
        db_, twitter::DatasetGenerator::KoreanConfig(0.01));
    data_ = new twitter::GeneratedData(generator.Generate());
    ASSERT_GT(data_->dataset.tweets().size(), 20u);
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  /// A fresh per-test scratch directory under the gtest temp root.
  static std::string ScratchDir(const std::string& name) {
    std::string dir = testing::TempDir() + "/stream_engine_" + name;
    std::filesystem::remove_all(dir);
    return dir;
  }

  static void AddAllUsers(StreamEngine* engine) {
    for (const twitter::User& user : data_->dataset.users()) {
      ASSERT_TRUE(engine->AddUser(user).ok());
    }
  }

  /// Ingests dataset tweets [first, last) with dataset-index fault keys.
  static void AddTweetRange(StreamEngine* engine, size_t first,
                            size_t last) {
    const std::vector<twitter::Tweet>& tweets = data_->dataset.tweets();
    for (size_t i = first; i < last && i < tweets.size(); ++i) {
      ASSERT_TRUE(
          engine->AddTweet(tweets[i], static_cast<int64_t>(i)).ok());
    }
  }

  /// Byte-compares two indexes through every user lookup + the summary.
  static void ExpectSameAnswers(const serve::StudyIndex& lhs,
                                const serve::StudyIndex& rhs) {
    ASSERT_EQ(lhs.user_count(), rhs.user_count());
    serve::Request topk;
    topk.id = 1;
    topk.method = serve::Method::kTopkSummary;
    EXPECT_EQ(serve::ExecuteOnIndex(lhs, topk),
              serve::ExecuteOnIndex(rhs, topk));
    for (const serve::UserEntry& entry : lhs.users()) {
      serve::Request request;
      request.id = 2;
      request.method = serve::Method::kLookupUser;
      request.user = entry.user;
      EXPECT_EQ(serve::ExecuteOnIndex(lhs, request),
                serve::ExecuteOnIndex(rhs, request));
      if (HasFailure()) return;
    }
  }

  static const AdminDb* db_;
  static twitter::GeneratedData* data_;
};

const AdminDb* StreamEngineTest::db_ = nullptr;
twitter::GeneratedData* StreamEngineTest::data_ = nullptr;

// ---------------------------------------------------------------------------
// Journal records

TEST(StreamJournalTest, UserRecordRoundTrips) {
  twitter::User user;
  user.id = 42;
  user.total_tweets = 7;
  user.handle = "mapo_dweller";
  user.profile_location = "Seoul Mapo-gu";
  StreamRecord record;
  ASSERT_TRUE(
      StreamJournal::DecodeRecord(StreamJournal::EncodeUser(user), &record));
  EXPECT_EQ(record.kind, StreamRecord::Kind::kUser);
  EXPECT_EQ(record.user.id, 42);
  EXPECT_EQ(record.user.total_tweets, 7);
  EXPECT_EQ(record.user.handle, "mapo_dweller");
  EXPECT_EQ(record.user.profile_location, "Seoul Mapo-gu");
}

TEST(StreamJournalTest, TweetRecordRoundTripsWithAndWithoutGps) {
  twitter::Tweet tweet;
  tweet.id = 9000;
  tweet.user = 42;
  tweet.time = 1234;
  tweet.text = "afternoon in 망원동";
  tweet.gps = geo::LatLng{37.5556, 126.9017};
  StreamRecord record;
  ASSERT_TRUE(StreamJournal::DecodeRecord(
      StreamJournal::EncodeTweet(tweet, /*fault_key=*/17), &record));
  EXPECT_EQ(record.kind, StreamRecord::Kind::kTweet);
  EXPECT_EQ(record.tweet.id, 9000);
  EXPECT_EQ(record.tweet.user, 42);
  EXPECT_EQ(record.tweet.time, 1234);
  EXPECT_EQ(record.fault_key, 17);
  ASSERT_TRUE(record.tweet.gps.has_value());
  EXPECT_DOUBLE_EQ(record.tweet.gps->lat, 37.5556);
  EXPECT_DOUBLE_EQ(record.tweet.gps->lng, 126.9017);
  EXPECT_EQ(record.tweet.text, tweet.text);

  tweet.gps.reset();
  ASSERT_TRUE(StreamJournal::DecodeRecord(
      StreamJournal::EncodeTweet(tweet, /*fault_key=*/-1), &record));
  EXPECT_FALSE(record.tweet.gps.has_value());
  EXPECT_EQ(record.fault_key, -1);
}

TEST(StreamJournalTest, EpochSealRoundTripsAndGarbageIsRejected) {
  StreamRecord record;
  ASSERT_TRUE(StreamJournal::DecodeRecord(
      StreamJournal::EncodeEpochSeal(12), &record));
  EXPECT_EQ(record.kind, StreamRecord::Kind::kEpochSeal);
  EXPECT_EQ(record.epoch, 12);

  // Truncated, trailing-garbage, and unknown-kind payloads all fail.
  std::string seal = StreamJournal::EncodeEpochSeal(12);
  EXPECT_FALSE(StreamJournal::DecodeRecord(
      std::string_view(seal).substr(0, seal.size() - 1), &record));
  EXPECT_FALSE(StreamJournal::DecodeRecord(seal + "x", &record));
  EXPECT_FALSE(StreamJournal::DecodeRecord("\xff\xff\xff\xff", &record));
  EXPECT_FALSE(StreamJournal::DecodeRecord("", &record));
}

// ---------------------------------------------------------------------------
// Engine basics

TEST_F(StreamEngineTest, StartsAtGenerationZeroWithAnEmptyIndex) {
  StreamEngine engine(db_, StudyConfig{}, StreamOptions{});
  ASSERT_TRUE(engine.Open().ok());
  EXPECT_EQ(engine.generation(), 0);
  EXPECT_EQ(engine.epochs_sealed(), 0);
  std::shared_ptr<const serve::StudyIndex> index = engine.CurrentIndex();
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->user_count(), 0u);
  // Sealing with nothing ingested is a no-op, not a new generation.
  EXPECT_EQ(engine.SealEpoch(), index);
  EXPECT_EQ(engine.generation(), 0);
}

TEST_F(StreamEngineTest, OpenTwiceIsRejected) {
  StreamEngine engine(db_, StudyConfig{}, StreamOptions{});
  ASSERT_TRUE(engine.Open().ok());
  EXPECT_FALSE(engine.Open().ok());
}

TEST_F(StreamEngineTest, ValidatesIngest) {
  StreamEngine engine(db_, StudyConfig{}, StreamOptions{});
  ASSERT_TRUE(engine.Open().ok());
  twitter::User user;
  user.id = 5;
  ASSERT_TRUE(engine.AddUser(user).ok());
  EXPECT_TRUE(engine.HasUser(5));
  EXPECT_FALSE(engine.AddUser(user).ok());  // Duplicate.
  user.id = -1;
  EXPECT_FALSE(engine.AddUser(user).ok());  // Negative.
  twitter::Tweet tweet;
  tweet.id = 1;
  tweet.user = 999;  // Unknown user.
  EXPECT_FALSE(engine.AddTweet(tweet).ok());
  tweet.user = 5;
  EXPECT_TRUE(engine.AddTweet(tweet).ok());
  EXPECT_EQ(engine.ingested_tweets(), 1);
}

TEST_F(StreamEngineTest, AppendIsAtomic) {
  StreamEngine engine(db_, StudyConfig{}, StreamOptions{});
  ASSERT_TRUE(engine.Open().ok());
  std::vector<twitter::User> users(1);
  users[0].id = 10;
  std::vector<twitter::Tweet> tweets(2);
  tweets[0].id = 100;
  tweets[0].user = 10;
  tweets[1].id = 101;
  tweets[1].user = 777;  // Unknown — poisons the whole batch.
  serve::AppendOutcome outcome = engine.Append(users, tweets);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.users_appended, 0);
  EXPECT_EQ(outcome.tweets_appended, 0);
  EXPECT_FALSE(engine.HasUser(10));
  EXPECT_EQ(engine.ingested_tweets(), 0);

  tweets[1].user = 10;
  outcome = engine.Append(users, tweets);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.users_appended, 1);
  EXPECT_EQ(outcome.tweets_appended, 2);
  EXPECT_EQ(outcome.pending_tweets, 2);
  EXPECT_EQ(outcome.epochs_sealed, 0);

  // A negative id poisons the batch too, with AddUser's own message.
  std::vector<twitter::User> negative(2);
  negative[0].id = 11;
  negative[1].id = -3;
  std::vector<twitter::Tweet> negative_tweets(1);
  negative_tweets[0].id = 102;
  negative_tweets[0].user = 11;
  outcome = engine.Append(negative, negative_tweets);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.users_appended, 0);
  EXPECT_EQ(outcome.tweets_appended, 0);
  EXPECT_FALSE(engine.HasUser(11));
  EXPECT_EQ(engine.ingested_users(), 1);
  EXPECT_EQ(engine.ingested_tweets(), 2);
  const Status direct = engine.AddUser(negative[1]);
  EXPECT_FALSE(direct.ok());
  EXPECT_EQ(outcome.error, direct.message());
  EXPECT_NE(outcome.error.find("user id -3 is negative"), std::string::npos)
      << outcome.error;
}

TEST_F(StreamEngineTest, AutoSealCountsEveryTweetAgainstTheEpoch) {
  StreamOptions options;
  options.epoch_size = 4;
  StreamEngine engine(db_, StudyConfig{}, options);
  ASSERT_TRUE(engine.Open().ok());
  AddAllUsers(&engine);
  AddTweetRange(&engine, 0, 10);
  // 10 tweets at epoch 4: seals at 4 and 8, two pending.
  EXPECT_EQ(engine.epochs_sealed(), 2);
  EXPECT_EQ(engine.generation(), 2);
  EXPECT_EQ(engine.pending_tweets(), 2);
  engine.SealEpoch();
  EXPECT_EQ(engine.epochs_sealed(), 3);
  EXPECT_EQ(engine.pending_tweets(), 0);
}

TEST_F(StreamEngineTest, ExportsStreamMetrics) {
  obs::MetricsRegistry metrics;
  StudyConfig config;
  config.obs.metrics = &metrics;
  StreamOptions options;
  options.epoch_size = 4;
  {
    StreamEngine engine(db_, config, options);
    ASSERT_TRUE(engine.Open().ok());
    AddAllUsers(&engine);
    AddTweetRange(&engine, 0, 10);
    engine.SealEpoch();
    EXPECT_EQ(metrics.GetCounter("stream.epochs_sealed")->value(), 3);
    EXPECT_EQ(metrics.GetCounter("stream.ingested_users")->value(),
              static_cast<int64_t>(data_->dataset.users().size()));
    EXPECT_EQ(metrics.GetCounter("stream.ingested_tweets")->value(), 10);
    // Generations: the initial empty one plus three seals, all live or
    // retired; the engine itself still pins the latest.
    EXPECT_EQ(metrics.GetGauge("stream.generations_live")->value() +
                  metrics.GetCounter("stream.generations_retired")->value(),
              4);
  }
  // Engine destruction drops the last pin: everything retires.
  EXPECT_EQ(metrics.GetGauge("stream.generations_live")->value(), 0);
  EXPECT_EQ(metrics.GetCounter("stream.generations_retired")->value(), 4);

  // Over the whole fixture: each distinct profile string is parsed once,
  // and the seal phases are timed inside stream.seal_us.
  obs::MetricsRegistry phases;
  config.obs.metrics = &phases;
  StreamEngine engine(db_, config, options);
  ASSERT_TRUE(engine.Open().ok());
  AddAllUsers(&engine);
  std::set<std::string> profiles;
  for (const twitter::User& user : data_->dataset.users()) {
    profiles.insert(user.profile_location);
  }
  EXPECT_LT(profiles.size(), data_->dataset.users().size());
  EXPECT_EQ(phases.GetCounter("stream.profile_parses")->value(),
            static_cast<int64_t>(profiles.size()));
  AddTweetRange(&engine, 0, data_->dataset.tweets().size());
  engine.SealEpoch();
  int64_t phase_sum = 0;
  for (const char* phase :
       {"stream.seal.assemble_us", "stream.seal.index_us",
        "stream.seal.evidence_us"}) {
    const int64_t us = phases.GetCounter(phase)->value();
    EXPECT_GT(us, 0) << phase;
    phase_sum += us;
  }
  EXPECT_LE(phase_sum, phases.GetCounter("stream.seal_us")->value());
  EXPECT_EQ(phases.GetCounter("stream.profile_parses")->value(),
            static_cast<int64_t>(profiles.size()));
}

// ---------------------------------------------------------------------------
// Crash-resume

TEST_F(StreamEngineTest, ResumeContinuesMidEpochAtTheSameBoundaries) {
  std::string dir = ScratchDir("mid_epoch");
  StreamOptions options;
  options.epoch_size = 5;
  StudyConfig config;
  config.durability.checkpoint_dir = dir;

  // "Crash" after 7 tweets: one sealed epoch (5), two pending.
  {
    StreamEngine engine(db_, config, options);
    ASSERT_TRUE(engine.Open().ok());
    AddAllUsers(&engine);
    AddTweetRange(&engine, 0, 7);
    EXPECT_EQ(engine.epochs_sealed(), 1);
    EXPECT_EQ(engine.pending_tweets(), 2);
  }

  // Resume replays the journal (1 marker + 2 pending tails) and the
  // remaining ingest auto-seals at the uninterrupted run's boundaries.
  config.durability.resume = true;
  StreamEngine resumed(db_, config, options);
  ASSERT_TRUE(resumed.Open().ok());
  EXPECT_EQ(resumed.epochs_sealed(), 1);
  EXPECT_EQ(resumed.generation(), 1);
  EXPECT_EQ(resumed.pending_tweets(), 2);
  EXPECT_EQ(resumed.ingested_tweets(), 7);
  AddTweetRange(&resumed, 7, 12);
  EXPECT_EQ(resumed.epochs_sealed(), 2);  // Sealed at tweet 10.
  resumed.SealEpoch();

  // Uninterrupted reference over the same 12 tweets.
  StreamOptions memory_only;
  memory_only.epoch_size = 5;
  StreamEngine reference(db_, StudyConfig{}, memory_only);
  ASSERT_TRUE(reference.Open().ok());
  AddAllUsers(&reference);
  AddTweetRange(&reference, 0, 12);
  reference.SealEpoch();
  EXPECT_EQ(resumed.epochs_sealed(), reference.epochs_sealed());
  EXPECT_EQ(resumed.generation(), reference.generation());
  ExpectSameAnswers(*resumed.CurrentIndex(), *reference.CurrentIndex());
}

TEST_F(StreamEngineTest, ResumeSurvivesATornTail) {
  std::string dir = ScratchDir("torn_tail");
  StreamOptions options;
  options.epoch_size = 3;
  StudyConfig config;
  config.durability.checkpoint_dir = dir;
  {
    StreamEngine engine(db_, config, options);
    ASSERT_TRUE(engine.Open().ok());
    AddAllUsers(&engine);
    AddTweetRange(&engine, 0, 8);
  }
  // A crash mid-write tears the journal tail; replay must truncate it
  // and resume from the last intact record.
  {
    std::ofstream out(dir + "/stream.journal",
                      std::ios::binary | std::ios::app);
    out << "torn-frame-garbage";
  }
  config.durability.resume = true;
  StreamEngine resumed(db_, config, options);
  ASSERT_TRUE(resumed.Open().ok());
  EXPECT_EQ(resumed.ingested_tweets(), 8);
  EXPECT_EQ(resumed.epochs_sealed(), 2);
  EXPECT_EQ(resumed.pending_tweets(), 2);
  // And the journal is writable again: new ingest extends it.
  AddTweetRange(&resumed, 8, 9);
  EXPECT_EQ(resumed.epochs_sealed(), 3);
}

TEST_F(StreamEngineTest, FreshOpenTruncatesAnOldJournal) {
  std::string dir = ScratchDir("fresh");
  StreamOptions options;
  options.epoch_size = 3;
  StudyConfig config;
  config.durability.checkpoint_dir = dir;
  {
    StreamEngine engine(db_, config, options);
    ASSERT_TRUE(engine.Open().ok());
    AddAllUsers(&engine);
    AddTweetRange(&engine, 0, 6);
  }
  // Without --resume the directory restarts from scratch.
  StreamEngine fresh(db_, config, options);
  ASSERT_TRUE(fresh.Open().ok());
  EXPECT_EQ(fresh.ingested_tweets(), 0);
  EXPECT_EQ(fresh.generation(), 0);
}

TEST_F(StreamEngineTest, JournalsIntoTheStudyConfigCheckpointDir) {
  // The engine takes its durability from the study config alone, the way
  // the CLIs hand it over.
  std::string dir = ScratchDir("config_durability");
  StudyConfig config;
  config.durability.checkpoint_dir = dir;
  StreamOptions options;
  options.epoch_size = 4;
  {
    StreamEngine engine(db_, config, options);
    ASSERT_TRUE(engine.Open().ok());
    AddAllUsers(&engine);
    AddTweetRange(&engine, 0, 10);
  }
  EXPECT_TRUE(io::PathExists(dir + "/stream.journal"));
  EXPECT_TRUE(io::PathExists(dir + "/geocode.journal"));

  config.durability.resume = true;
  StreamEngine resumed(db_, config, options);
  ASSERT_TRUE(resumed.Open().ok());
  EXPECT_EQ(resumed.ingested_tweets(), 10);

  StreamEngine reference(db_, StudyConfig{}, options);
  ASSERT_TRUE(reference.Open().ok());
  AddAllUsers(&reference);
  AddTweetRange(&reference, 0, 10);
  EXPECT_EQ(resumed.epochs_sealed(), reference.epochs_sealed());
  EXPECT_EQ(resumed.generation(), reference.generation());
  ExpectSameAnswers(*resumed.CurrentIndex(), *reference.CurrentIndex());
}

// ---------------------------------------------------------------------------
// Pre-ingest from a corpus view (front_end::Streaming::Open)

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// A --stream start over `view`; null (with the failure on stderr) when
/// the start fails.
std::unique_ptr<StreamEngine> StartStream(const io::CorpusView& view,
                                          const AdminDb& db,
                                          const StudyConfig& config,
                                          int64_t epoch_size) {
  front_end::Streaming streaming;
  streaming.enabled = true;
  streaming.epoch_size = epoch_size;
  return streaming.Open(view, db, config, "");
}

TEST_F(StreamEngineTest, PreIngestJournalsWhatTheReplayApiWould) {
  // Day-granular times make most tweets share a timestamp, and scrambled
  // ids make the (time, id) tie-break disagree with row order.
  twitter::Dataset dataset;
  for (const twitter::User& user : data_->dataset.users()) {
    dataset.AddUser(user);
  }
  const std::vector<twitter::Tweet>& tweets = data_->dataset.tweets();
  std::set<SimTime> times;
  for (size_t row = 0; row < tweets.size(); ++row) {
    twitter::Tweet tweet = tweets[row];
    tweet.time -= tweet.time % kSecondsPerDay;
    tweet.id = static_cast<twitter::TweetId>((row * 7919) % tweets.size());
    times.insert(tweet.time);
    dataset.AddTweet(std::move(tweet));
  }
  ASSERT_LT(times.size() * 2, tweets.size());
  auto view = io::CorpusView::FromDataset(dataset);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  for (int64_t epoch_size : {0, 7}) {
    SCOPED_TRACE(epoch_size);
    const std::string suffix = std::to_string(epoch_size);
    StudyConfig config;
    config.durability.checkpoint_dir = ScratchDir("preingest_view" + suffix);
    const std::string view_dir = config.durability.checkpoint_dir;
    int64_t generation = 0;
    {
      std::unique_ptr<StreamEngine> engine =
          StartStream(*view, *db_, config, epoch_size);
      ASSERT_NE(engine, nullptr);
      generation = engine->generation();
    }

    // The reference: users in dataset order, then the streaming
    // endpoint's replay with dataset indices as fault keys.
    config.durability.checkpoint_dir = ScratchDir("preingest_rows" + suffix);
    const std::string rows_dir = config.durability.checkpoint_dir;
    {
      StreamOptions options;
      options.epoch_size = epoch_size;
      StreamEngine reference(db_, config, options);
      ASSERT_TRUE(reference.Open().ok());
      for (const twitter::User& user : dataset.users()) {
        ASSERT_TRUE(reference.AddUser(user).ok());
      }
      twitter::StreamingApi(&dataset).Replay(
          [&](size_t index, const twitter::Tweet& tweet) {
            ASSERT_TRUE(
                reference.AddTweet(tweet, static_cast<int64_t>(index)).ok());
          });
      reference.SealEpoch();
      EXPECT_EQ(generation, reference.generation());
    }

    const std::string journal = ReadBytes(view_dir + "/stream.journal");
    EXPECT_GT(journal.size(), tweets.size());
    EXPECT_EQ(journal, ReadBytes(rows_dir + "/stream.journal"));
    EXPECT_EQ(ReadBytes(view_dir + "/geocode.journal"),
              ReadBytes(rows_dir + "/geocode.journal"));
  }
}

TEST_F(StreamEngineTest, PreIngestRejectsARepeatedUserIdFreshAndResumed) {
  // Ids whose 8 bytes occur once in the file, so the second user's id
  // slot can be found and overwritten with the first's.
  constexpr twitter::UserId kFirst = 0x5151515151510001;
  constexpr twitter::UserId kSecond = 0x5151515151510002;
  twitter::Dataset dataset;
  for (twitter::UserId id : {kFirst, kSecond}) {
    twitter::User user;
    user.id = id;
    user.handle = "u" + std::to_string(id % 10);
    user.profile_location = "Seoul Mapo-gu";
    user.total_tweets = 3;
    dataset.AddUser(user);
    twitter::Tweet tweet;
    tweet.id = id % 10;
    tweet.user = id;
    tweet.time = 100;
    tweet.gps = geo::LatLng{37.56, 126.91};
    dataset.AddTweet(tweet);
  }
  const std::string dir = ScratchDir("repeated_id");
  std::filesystem::create_directories(dir);
  const std::string clean_path = dir + "/clean.stir";
  const std::string crafted_path = dir + "/crafted.stir";
  ASSERT_TRUE(io::CorpusWriter::WriteDataset(dataset, clean_path).ok());
  std::string bytes = ReadBytes(clean_path);
  char first[8], second[8];
  std::memcpy(first, &kFirst, 8);
  std::memcpy(second, &kSecond, 8);
  const size_t slot = bytes.find(std::string(second, 8));
  ASSERT_NE(slot, std::string::npos);
  ASSERT_EQ(bytes.find(std::string(second, 8), slot + 1), std::string::npos);
  bytes.replace(slot, 8, first, 8);
  std::ofstream(crafted_path, std::ios::binary) << bytes;

  // The edit breaks the CRC, so the view opens with verification off;
  // the structural checks let the repeated id through.
  io::CorpusViewOptions unverified;
  unverified.verify_crc = false;
  auto crafted = io::CorpusView::Open(crafted_path, unverified);
  ASSERT_TRUE(crafted.ok()) << crafted.status().ToString();
  ASSERT_EQ(crafted->user_id(1), kFirst);
  const std::string named = "duplicate user id " + std::to_string(kFirst);

  StudyConfig config;
  config.durability.checkpoint_dir = dir + "/ckpt";
  testing::internal::CaptureStderr();
  EXPECT_EQ(StartStream(*crafted, *db_, config, 0), nullptr);
  EXPECT_NE(testing::internal::GetCapturedStderr().find(named),
            std::string::npos);

  // Resumed over a journal that already holds both users: the start
  // still fails, before the engine opens, so the journal is untouched.
  auto clean = io::CorpusView::Open(clean_path);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_NE(StartStream(*clean, *db_, config, 0), nullptr);
  const std::string journal =
      ReadBytes(config.durability.checkpoint_dir + "/stream.journal");
  ASSERT_FALSE(journal.empty());
  config.durability.resume = true;
  testing::internal::CaptureStderr();
  EXPECT_EQ(StartStream(*crafted, *db_, config, 0), nullptr);
  EXPECT_NE(testing::internal::GetCapturedStderr().find(named),
            std::string::npos);
  EXPECT_EQ(ReadBytes(config.durability.checkpoint_dir + "/stream.journal"),
            journal);
}

}  // namespace
}  // namespace stir::stream
