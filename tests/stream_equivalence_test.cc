// Differential batch-equivalence harness for the incremental stream
// engine (DESIGN.md §12). The headline invariant under test: for ANY
// epoch partition of the same tweet log and ANY thread count, the final
// streamed index answers every index-served protocol method
// byte-identically to the index the one-shot batch study builds. Also
// covers users arriving between tweets (every generation checked
// against the batch study and evidence build over its prefix),
// fault-injected equivalence, RCU snapshot consistency for
// generation-pinned readers during swaps, and a concurrent
// appender/querier hammer (a TSan target — build with
// -DSTIR_SANITIZE=thread).

#include "stream/engine.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/study.h"
#include "core/study_config.h"
#include "geo/admin_db.h"
#include "gtest/gtest.h"
#include "infer/inference_index.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/study_index.h"
#include "twitter/generator.h"

namespace stir::stream {
namespace {

using geo::AdminDb;
using obs::JsonParse;
using obs::JsonValue;

class StreamEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = &AdminDb::KoreanDistricts();
    twitter::DatasetGenerator generator(
        db_, twitter::DatasetGenerator::KoreanConfig(0.02));
    data_ = new twitter::GeneratedData(generator.Generate());
    ASSERT_GT(data_->dataset.tweets().size(), 100u);

    core::CorrelationStudy study(db_);
    core::StudyResult result = study.Run(data_->dataset);
    batch_index_ =
        new serve::StudyIndex(serve::StudyIndex::Build(result, *db_));
    ASSERT_FALSE(batch_index_->empty());

    requests_ = new std::vector<serve::Request>(
        ProtocolRequests(*batch_index_));
    expected_ = new std::vector<std::string>();
    expected_->reserve(requests_->size());
    for (const serve::Request& request : *requests_) {
      expected_->push_back(serve::ExecuteOnIndex(*batch_index_, request));
    }
  }
  static void TearDownTestSuite() {
    delete expected_;
    delete requests_;
    delete batch_index_;
    delete data_;
    expected_ = nullptr;
    requests_ = nullptr;
    batch_index_ = nullptr;
    data_ = nullptr;
  }

  /// Every index-served request the protocol can express against this
  /// index: each user (+ one absent), each district (+ paging variants
  /// and one absent), and the topk summary.
  static std::vector<serve::Request> ProtocolRequests(
      const serve::StudyIndex& index) {
    std::vector<serve::Request> requests;
    int64_t id = 0;
    for (const serve::UserEntry& entry : index.users()) {
      serve::Request request;
      request.id = ++id;
      request.method = serve::Method::kLookupUser;
      request.user = entry.user;
      requests.push_back(request);
    }
    {
      serve::Request missing;
      missing.id = ++id;
      missing.method = serve::Method::kLookupUser;
      missing.user = 1'000'000'000;
      requests.push_back(missing);
    }
    for (const serve::DistrictEntry& entry : index.districts()) {
      const std::string& name = index.name(entry.name);
      size_t space = name.find(' ');
      if (space == std::string::npos) {
        ADD_FAILURE() << "district name without a state: " << name;
        continue;
      }
      serve::Request request;
      request.id = ++id;
      request.method = serve::Method::kLookupDistrict;
      request.state = name.substr(0, space);
      request.county = name.substr(space + 1);
      requests.push_back(request);
      request.id = ++id;
      request.limit = 2;
      request.offset = 1;
      requests.push_back(request);
    }
    {
      serve::Request missing;
      missing.id = ++id;
      missing.method = serve::Method::kLookupDistrict;
      missing.state = "Atlantis";
      missing.county = "Deep-gu";
      requests.push_back(missing);
    }
    serve::Request topk;
    topk.id = ++id;
    topk.method = serve::Method::kTopkSummary;
    requests.push_back(topk);
    return requests;
  }

  /// Ingests the full corpus: users in dataset order, tweets in dataset
  /// order with their dataset indices as fault keys (the batch study's
  /// fault schedule). `seal_each` optionally seals after single tweets.
  static void IngestAll(StreamEngine* engine) {
    for (const twitter::User& user : data_->dataset.users()) {
      ASSERT_TRUE(engine->AddUser(user).ok());
    }
    const std::vector<twitter::Tweet>& tweets = data_->dataset.tweets();
    for (size_t i = 0; i < tweets.size(); ++i) {
      ASSERT_TRUE(
          engine->AddTweet(tweets[i], static_cast<int64_t>(i)).ok());
    }
  }

  /// The whole point: the streamed index answers every request with the
  /// exact bytes the batch index produced.
  static void ExpectBatchEquivalent(
      const std::shared_ptr<const serve::StudyIndex>& index,
      const std::string& label) {
    ASSERT_NE(index, nullptr);
    for (size_t i = 0; i < requests_->size(); ++i) {
      EXPECT_EQ(serve::ExecuteOnIndex(*index, (*requests_)[i]),
                (*expected_)[i])
          << label << ", request " << i;
      if (HasFailure()) return;
    }
  }

  static const AdminDb* db_;
  static twitter::GeneratedData* data_;
  static serve::StudyIndex* batch_index_;
  static std::vector<serve::Request>* requests_;
  static std::vector<std::string>* expected_;
};

const AdminDb* StreamEquivalenceTest::db_ = nullptr;
twitter::GeneratedData* StreamEquivalenceTest::data_ = nullptr;
serve::StudyIndex* StreamEquivalenceTest::batch_index_ = nullptr;
std::vector<serve::Request>* StreamEquivalenceTest::requests_ = nullptr;
std::vector<std::string>* StreamEquivalenceTest::expected_ = nullptr;

// ---------------------------------------------------------------------------
// The partition × thread-count grid

TEST_F(StreamEquivalenceTest, EpochSizeGridMatchesBatch) {
  // Size 1 (a seal per tweet), a prime, a power of two, and all-in-one
  // (0 auto-seals never; the final manual seal is the only epoch).
  const int64_t kEpochSizes[] = {1, 7, 16, 0};
  const int kThreads[] = {1, 2, 8};
  for (int64_t epoch_size : kEpochSizes) {
    for (int threads : kThreads) {
      StudyConfig config;
      config.threads = threads;
      StreamOptions options;
      options.epoch_size = epoch_size;
      StreamEngine engine(db_, config, options);
      ASSERT_TRUE(engine.Open().ok());
      IngestAll(&engine);
      engine.SealEpoch();
      std::string label = "epoch_size=" + std::to_string(epoch_size) +
                          " threads=" + std::to_string(threads);
      if (epoch_size == 1) {
        // Every tweet sealed an epoch; the trailing seal was a no-op.
        EXPECT_EQ(engine.epochs_sealed(),
                  static_cast<int64_t>(data_->dataset.tweets().size()))
            << label;
      }
      EXPECT_EQ(engine.generation(), engine.epochs_sealed()) << label;
      EXPECT_EQ(engine.pending_tweets(), 0) << label;
      ExpectBatchEquivalent(engine.CurrentIndex(), label);
      if (HasFailure()) return;
    }
  }
}

TEST_F(StreamEquivalenceTest, SeededRandomPartitionsMatchBatch) {
  // Eight seeded random partitions: seal after each tweet with
  // probability ~1/8, thread count cycling through {1, 2, 8}.
  const int kThreads[] = {1, 2, 8};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    StudyConfig config;
    config.threads = kThreads[seed % 3];
    StreamEngine engine(db_, config, StreamOptions{});
    ASSERT_TRUE(engine.Open().ok());
    for (const twitter::User& user : data_->dataset.users()) {
      ASSERT_TRUE(engine.AddUser(user).ok());
    }
    const std::vector<twitter::Tweet>& tweets = data_->dataset.tweets();
    for (size_t i = 0; i < tweets.size(); ++i) {
      ASSERT_TRUE(
          engine.AddTweet(tweets[i], static_cast<int64_t>(i)).ok());
      if (rng() % 8 == 0) engine.SealEpoch();
    }
    engine.SealEpoch();
    ExpectBatchEquivalent(engine.CurrentIndex(),
                          "seed=" + std::to_string(seed));
    if (HasFailure()) return;
  }
}

TEST_F(StreamEquivalenceTest, FaultScheduleMatchesBatch) {
  // With fault injection armed, the dataset-index fault keys must charge
  // the streamed run the exact per-tweet fault/retry schedule of the
  // batch study — funnel counters included.
  StudyConfig faulty;
  faulty.fault.error_rate = 0.3;
  faulty.fault.seed = 99;
  faulty.retry.max_attempts = 2;

  core::CorrelationStudy study(db_, faulty);
  core::StudyResult batch = study.Run(data_->dataset);
  serve::StudyIndex batch_faulty = serve::StudyIndex::Build(batch, *db_);

  for (int64_t epoch_size : {1, 13}) {
    StreamOptions options;
    options.epoch_size = epoch_size;
    StreamEngine engine(db_, faulty, options);
    ASSERT_TRUE(engine.Open().ok());
    IngestAll(&engine);
    engine.SealEpoch();
    std::shared_ptr<const serve::StudyIndex> index = engine.CurrentIndex();
    ASSERT_NE(index, nullptr);
    std::string label = "faulty epoch_size=" + std::to_string(epoch_size);
    for (const serve::Request& request : *requests_) {
      EXPECT_EQ(serve::ExecuteOnIndex(*index, request),
                serve::ExecuteOnIndex(batch_faulty, request))
          << label;
      if (HasFailure()) return;
    }
    EXPECT_EQ(index->funnel().geocode_faulted,
              batch_faulty.funnel().geocode_faulted)
        << label;
    EXPECT_EQ(index->funnel().geocode_retried,
              batch_faulty.funnel().geocode_retried)
        << label;
  }
}

// ---------------------------------------------------------------------------
// Users arriving between tweets

/// Every field of every evidence row, in row order.
std::string EvidenceFingerprint(const infer::InferenceIndex& index) {
  std::ostringstream out;
  for (const infer::UserEvidenceView& user : index.users()) {
    out << 'u' << user.user << ':' << user.tweets << ',' << user.gps_tweets
        << ',' << user.text_votes << '[';
    for (const infer::RegionEvidence& region : user.regions) {
      out << region.region << ':' << region.gps_tweets << ','
          << region.night_gps_tweets << ',' << region.text_votes << ';';
    }
    out << "]\n";
  }
  return out.str();
}

/// A grouping and its refined row, rendered whole: the Table II rows as
/// text, named from `db`.
std::string GroupingRow(const core::UserGrouping& grouping,
                        const AdminDb& db) {
  std::string row = std::to_string(grouping.user) + ' ' +
                    core::TopKGroupToString(grouping.group) + ' ' +
                    std::to_string(grouping.match_rank) + ' ' +
                    std::to_string(grouping.gps_tweet_count) + ' ' +
                    std::to_string(grouping.matched_tweet_count);
  for (const core::DistrictCount& district : grouping.ordered) {
    row += " | " + core::RenderTableRow(grouping, district, db).ToString();
  }
  return row;
}
std::string RefinedRow(const core::RefinedUser& refined) {
  std::string row = std::to_string(refined.user) + ' ' +
                    std::to_string(refined.profile_region) + ' ' +
                    std::to_string(refined.total_tweets) + ':';
  for (geo::RegionId region : refined.tweet_regions) {
    row += ' ' + std::to_string(region);
  }
  return row;
}

/// One ingest call of an interleaved log.
struct Step {
  enum class Kind { kUser, kTweet, kAppend, kSeal };
  Kind kind = Kind::kSeal;
  std::vector<size_t> users;   ///< Dataset user rows (kUser, kAppend).
  std::vector<size_t> tweets;  ///< Dataset tweet rows (kTweet, kAppend).
};

/// An interleaved log over a slice of the fixture: 16 users the batch
/// study keeps, 16 it does not whose tweets are in the log, and 8 users
/// that never tweet (their tweets are left out); at most 6 tweets a user.
/// Users arrive in `arrival` order, each between tweets: after an
/// arrival, a seeded number of the tweets already released follow. A
/// third of the kept users hold their tweets back until every user has
/// arrived, so they turn final several seals after they arrive (their
/// rows come back in `held_users`). Every fifth arrival brings the next
/// user along in one Append with up to two released tweets, possibly
/// their own. A manual seal follows a step with probability 1/5.
std::vector<Step> InterleavedLog(const twitter::Dataset& dataset,
                                 const serve::StudyIndex& batch,
                                 bool descending_ids, uint64_t seed,
                                 std::vector<size_t>* held_users) {
  const std::vector<twitter::User>& users = dataset.users();
  std::vector<size_t> kept, dropped, silent;
  for (size_t row = 0; row < users.size(); ++row) {
    const bool tweets = !dataset.TweetIndicesOf(users[row].id).empty();
    if (batch.FindUser(users[row].id) != nullptr) {
      if (kept.size() < 16) kept.push_back(row);
    } else if (tweets && dropped.size() < 16) {
      dropped.push_back(row);
    } else if (silent.size() < 8) {
      silent.push_back(row);
    }
  }
  std::vector<size_t> arrival = kept;
  arrival.insert(arrival.end(), dropped.begin(), dropped.end());
  arrival.insert(arrival.end(), silent.begin(), silent.end());
  std::mt19937_64 rng(seed);
  if (descending_ids) {
    std::sort(arrival.begin(), arrival.end(), [&](size_t a, size_t b) {
      return users[a].id > users[b].id;
    });
  } else {
    std::shuffle(arrival.begin(), arrival.end(), rng);
  }
  held_users->clear();
  for (size_t i = 0; i < kept.size(); i += 3) held_users->push_back(kept[i]);

  std::vector<Step> log;
  std::vector<size_t> released, held;
  const auto take = [&](size_t n) {
    std::vector<size_t> taken;
    while (taken.size() < n && !released.empty()) {
      const size_t at = rng() % released.size();
      taken.push_back(released[at]);
      released.erase(released.begin() + static_cast<std::ptrdiff_t>(at));
    }
    return taken;
  };
  const auto maybe_seal = [&] {
    if (rng() % 5 == 0) log.push_back({Step::Kind::kSeal, {}, {}});
  };
  const auto arrive = [&](size_t row) {
    if (std::find(silent.begin(), silent.end(), row) != silent.end()) return;
    const std::vector<size_t>& own = dataset.TweetIndicesOf(users[row].id);
    const bool holds = std::find(held_users->begin(), held_users->end(),
                                 row) != held_users->end();
    for (size_t i = 0; i < own.size() && i < 6; ++i) {
      (holds ? held : released).push_back(own[i]);
    }
  };
  for (size_t i = 0; i < arrival.size(); ++i) {
    if (i % 5 == 4 && i + 1 < arrival.size()) {
      arrive(arrival[i]);
      arrive(arrival[i + 1]);
      log.push_back({Step::Kind::kAppend, {arrival[i], arrival[i + 1]},
                     take(rng() % 3)});
      ++i;
    } else {
      arrive(arrival[i]);
      log.push_back({Step::Kind::kUser, {arrival[i]}, {}});
    }
    maybe_seal();
    for (size_t n = rng() % 4; n > 0 && !released.empty(); --n) {
      log.push_back({Step::Kind::kTweet, {}, take(1)});
      maybe_seal();
    }
  }
  released.insert(released.end(), held.begin(), held.end());
  while (!released.empty()) {
    log.push_back({Step::Kind::kTweet, {}, take(1)});
    maybe_seal();
  }
  log.push_back({Step::Kind::kSeal, {}, {}});
  return log;
}

TEST_F(StreamEquivalenceTest, InterleavedArrivalsMatchBatchAtEverySeal) {
  const std::vector<twitter::User>& users = data_->dataset.users();
  const std::vector<twitter::Tweet>& tweets = data_->dataset.tweets();
  const core::CorrelationStudy study(db_);

  for (const bool descending : {true, false}) {
    std::vector<size_t> held_users;
    const std::vector<Step> log =
        InterleavedLog(data_->dataset, *batch_index_, descending,
                       /*seed=*/descending ? 5 : 11, &held_users);
    // The ingest order the log implies (Append applies users first):
    // every sealed generation covers a prefix of each.
    std::vector<size_t> arrival, tweet_log;
    for (const Step& step : log) {
      arrival.insert(arrival.end(), step.users.begin(), step.users.end());
      tweet_log.insert(tweet_log.end(), step.tweets.begin(),
                       step.tweets.end());
    }

    // The batch study and evidence build over the first `u` arrivals and
    // the first `t` tweets, memoized across the engine configurations.
    struct Expected {
      core::StudyResult result;
      size_t users = 0;
      size_t districts = 0;
      std::vector<serve::Request> requests;
      std::vector<std::string> answers;
      std::string evidence;
    };
    std::map<std::pair<size_t, size_t>, Expected> expected;
    const auto batch_over = [&](size_t u, size_t t) -> const Expected& {
      auto [it, added] = expected.try_emplace({u, t});
      if (!added) return it->second;
      twitter::Dataset prefix;
      for (size_t i = 0; i < u; ++i) prefix.AddUser(users[arrival[i]]);
      for (size_t i = 0; i < t; ++i) prefix.AddTweet(tweets[tweet_log[i]]);
      Expected& want = it->second;
      want.result = study.Run(prefix);
      const serve::StudyIndex index =
          serve::StudyIndex::Build(want.result, *db_);
      want.users = index.user_count();
      want.districts = index.districts().size();
      want.requests = ProtocolRequests(index);
      for (const serve::Request& request : want.requests) {
        want.answers.push_back(serve::ExecuteOnIndex(index, request));
      }
      want.evidence =
          EvidenceFingerprint(infer::InferenceIndex::Build(prefix, *db_));
      return want;
    };

    for (const int64_t epoch_size : {1, 7, 0}) {
      for (const int threads : {1, 2, 8}) {
        const std::string label =
            std::string(descending ? "descending" : "random") +
            " ids, epoch_size=" + std::to_string(epoch_size) +
            " threads=" + std::to_string(threads);
        StudyConfig config;
        config.threads = threads;
        StreamOptions options;
        options.epoch_size = epoch_size;
        StreamEngine engine(db_, config, options);
        ASSERT_TRUE(engine.Open().ok()) << label;

        size_t users_in = 0;
        size_t tweets_in = 0;
        int64_t seals_checked = 0;
        std::map<twitter::UserId, int64_t> sealed_at_arrival;
        int64_t longest_wait = 0;  // Seals from a held user's arrival
                                   // to its first tweet.
        for (const Step& step : log) {
          const int64_t sealed_before = engine.epochs_sealed();
          size_t sealed_tweets = tweets_in + step.tweets.size();
          for (size_t row : step.users) {
            sealed_at_arrival[users[row].id] = sealed_before;
          }
          for (size_t row : step.tweets) {
            const twitter::UserId user = tweets[row].user;
            for (size_t held : held_users) {
              if (users[held].id != user) continue;
              longest_wait = std::max(
                  longest_wait, sealed_before - sealed_at_arrival[user]);
            }
          }
          switch (step.kind) {
            case Step::Kind::kUser:
              ASSERT_TRUE(engine.AddUser(users[step.users[0]]).ok()) << label;
              break;
            case Step::Kind::kTweet:
              ASSERT_TRUE(engine
                              .AddTweet(tweets[step.tweets[0]],
                                        static_cast<int64_t>(tweets_in))
                              .ok())
                  << label;
              break;
            case Step::Kind::kAppend: {
              std::vector<twitter::User> batch_users;
              std::vector<twitter::Tweet> batch_tweets;
              for (size_t row : step.users) batch_users.push_back(users[row]);
              for (size_t row : step.tweets) {
                batch_tweets.push_back(tweets[row]);
              }
              const serve::AppendOutcome outcome =
                  engine.Append(batch_users, batch_tweets);
              ASSERT_TRUE(outcome.ok) << label << ": " << outcome.error;
              // An auto-seal inside the batch covers its users and the
              // tweets before the pending tail.
              sealed_tweets -= static_cast<size_t>(outcome.pending_tweets);
              break;
            }
            case Step::Kind::kSeal:
              engine.SealEpoch();
              break;
          }
          users_in += step.users.size();
          tweets_in += step.tweets.size();
          if (engine.epochs_sealed() == sealed_before) continue;

          ++seals_checked;
          const Expected& want = batch_over(users_in, sealed_tweets);
          const std::string at = label + ", " + std::to_string(users_in) +
                                 " users, " + std::to_string(sealed_tweets) +
                                 " tweets";
          std::shared_ptr<const serve::StudyIndex> index =
              engine.CurrentIndex();
          ASSERT_EQ(index->user_count(), want.users) << at;
          ASSERT_EQ(index->districts().size(), want.districts) << at;
          for (size_t i = 0; i < want.requests.size(); ++i) {
            ASSERT_EQ(serve::ExecuteOnIndex(*index, want.requests[i]),
                      want.answers[i])
                << at << ", request " << i;
          }
          ASSERT_EQ(EvidenceFingerprint(*engine.CurrentInferIndex()),
                    want.evidence)
              << at;
        }
        EXPECT_EQ(engine.pending_tweets(), 0) << label;
        EXPECT_GE(seals_checked, 10) << label;
        EXPECT_GE(longest_wait, 2) << label;

        // The report path: every grouping and refined row, in order.
        const Expected& want = batch_over(arrival.size(), tweet_log.size());
        ASSERT_FALSE(want.result.groupings.empty()) << label;
        const core::StudyResult snapshot = engine.SnapshotResult();
        std::vector<std::string> got_rows, want_rows;
        for (const core::UserGrouping& grouping : snapshot.groupings) {
          got_rows.push_back(GroupingRow(grouping, *db_));
        }
        for (const core::UserGrouping& grouping : want.result.groupings) {
          want_rows.push_back(GroupingRow(grouping, *db_));
        }
        EXPECT_EQ(got_rows, want_rows) << label;
        got_rows.clear();
        want_rows.clear();
        for (const core::RefinedUser& refined : snapshot.refined) {
          got_rows.push_back(RefinedRow(refined));
        }
        for (const core::RefinedUser& refined : want.result.refined) {
          want_rows.push_back(RefinedRow(refined));
        }
        EXPECT_EQ(got_rows, want_rows) << label;
        EXPECT_EQ(snapshot.GroupTableString(),
                  want.result.GroupTableString())
            << label;
        EXPECT_EQ(snapshot.FunnelString(), want.result.FunnelString())
            << label;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// RCU snapshot consistency

TEST_F(StreamEquivalenceTest, PinnedReadersSeeConsistentSnapshots) {
  // A reader that pinned generation G keeps answering from G's bytes
  // while appends seal new generations underneath it — the RCU contract.
  StreamOptions stream_options;
  stream_options.epoch_size = 1;
  StreamEngine engine(db_, StudyConfig{}, stream_options);
  ASSERT_TRUE(engine.Open().ok());
  IngestAll(&engine);
  engine.SealEpoch();

  serve::ServeOptions serve_options;
  serve_options.stream = &engine;
  serve::Server server(engine.CurrentIndex(), engine.generation(),
                       serve_options);
  engine.AttachScheduler(&server.scheduler());

  int64_t pinned_generation = -1;
  std::shared_ptr<const serve::StudyIndex> pinned =
      server.scheduler().PinIndex(&pinned_generation);
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned_generation, engine.generation());
  const size_t users_before = pinned->user_count();

  // Appends (each sealing an epoch at size 1) swap fresh generations in.
  for (int i = 0; i < 3; ++i) {
    std::string line =
        "{\"v\":1,\"id\":" + std::to_string(100 + i) +
        ",\"method\":\"append_tweets\",\"params\":{\"users\":[{\"id\":" +
        std::to_string(7'000'000 + i) +
        ",\"location\":\"Seoul Mapo-gu\",\"total_tweets\":1}],"
        "\"tweets\":[{\"id\":" +
        std::to_string(8'000'000 + i) + ",\"user\":" +
        std::to_string(7'000'000 + i) +
        ",\"time\":1,\"lat\":37.55,\"lng\":126.94,\"text\":\"x\"}]}}";
    std::string response = server.SubmitLine(line).get();
    JsonValue root;
    ASSERT_TRUE(JsonParse(response, &root)) << response;
    const JsonValue* ok = root.Find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_TRUE(ok->boolean) << response;
  }

  // The pinned snapshot is untouched: same bytes as the batch index it
  // was proven equal to, same user count.
  EXPECT_EQ(pinned->user_count(), users_before);
  ExpectBatchEquivalent(pinned, "pinned snapshot");

  // A fresh pin sees the post-append world: newer generation, more users.
  int64_t fresh_generation = -1;
  std::shared_ptr<const serve::StudyIndex> fresh =
      server.scheduler().PinIndex(&fresh_generation);
  EXPECT_GT(fresh_generation, pinned_generation);
  EXPECT_EQ(fresh->user_count(), users_before + 3);
  EXPECT_NE(fresh->FindUser(7'000'002), nullptr);
  server.Drain();
}

// ---------------------------------------------------------------------------
// Concurrent appenders + queriers (TSan target)

TEST_F(StreamEquivalenceTest, AppendQueryHammer) {
  StreamOptions stream_options;
  stream_options.epoch_size = 16;
  StreamEngine engine(db_, StudyConfig{}, stream_options);
  ASSERT_TRUE(engine.Open().ok());
  IngestAll(&engine);
  engine.SealEpoch();

  serve::ServeOptions serve_options;
  serve_options.workers = 4;
  serve_options.queue_capacity = 4096;
  serve_options.stream = &engine;
  serve::Server server(engine.CurrentIndex(), engine.generation(),
                       serve_options);
  engine.AttachScheduler(&server.scheduler());

  constexpr int kQueriers = 4;
  constexpr int kAppenders = 2;
  constexpr int kPerThread = 60;
  const twitter::UserId probe = batch_index_->users()[0].user;
  std::atomic<int64_t> ok_responses{0};

  std::vector<std::thread> threads;
  threads.reserve(kQueriers + kAppenders);
  for (int t = 0; t < kQueriers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int64_t id = t * kPerThread + i;
        std::string line =
            i % 2 == 0
                ? "{\"v\":1,\"id\":" + std::to_string(id) +
                      ",\"method\":\"lookup_user\",\"params\":{\"user\":" +
                      std::to_string(probe) + "}}"
                : "{\"v\":1,\"id\":" + std::to_string(id) +
                      ",\"method\":\"index_info\"}";
        std::string response = server.SubmitLine(line).get();
        JsonValue root;
        ASSERT_TRUE(JsonParse(response, &root)) << response;
        const JsonValue* ok = root.Find("ok");
        ASSERT_NE(ok, nullptr) << response;
        if (ok->boolean) ok_responses.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int64_t uid = 9'000'000 + t * kPerThread + i;
        std::string line =
            "{\"v\":1,\"id\":" + std::to_string(1'000 + uid) +
            ",\"method\":\"append_tweets\",\"params\":{\"users\":[{\"id\":" +
            std::to_string(uid) +
            ",\"location\":\"Seoul Mapo-gu\",\"total_tweets\":1}],"
            "\"tweets\":[{\"id\":" +
            std::to_string(uid + 1'000'000) + ",\"user\":" +
            std::to_string(uid) +
            ",\"time\":9,\"lat\":37.55,\"lng\":126.94,\"text\":\"h\"}]}}";
        std::string response = server.SubmitLine(line).get();
        JsonValue root;
        ASSERT_TRUE(JsonParse(response, &root)) << response;
        const JsonValue* ok = root.Find("ok");
        ASSERT_NE(ok, nullptr) << response;
        EXPECT_TRUE(ok->boolean) << response;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.Drain();

  // Every append landed: the engine grew by exactly the appended rows,
  // every query got a well-formed answer, and the final generation
  // matches the seal count.
  EXPECT_EQ(ok_responses.load(), kQueriers * kPerThread);
  EXPECT_EQ(engine.ingested_users(),
            static_cast<int64_t>(data_->dataset.users().size()) +
                kAppenders * kPerThread);
  EXPECT_EQ(engine.generation(), engine.epochs_sealed());
  engine.SealEpoch();  // flush the sub-epoch tail before counting
  std::shared_ptr<const serve::StudyIndex> index = engine.CurrentIndex();
  EXPECT_EQ(index->user_count(),
            batch_index_->user_count() + kAppenders * kPerThread);
}

}  // namespace
}  // namespace stir::stream
