#ifndef STIR_TWITTER_GENERATOR_H_
#define STIR_TWITTER_GENERATOR_H_

#include <cstdint>
#include <span>
#include <unordered_map>

#include "common/clock.h"
#include "geo/admin_db.h"
#include "twitter/crawler.h"
#include "twitter/dataset.h"
#include "twitter/mobility.h"
#include "twitter/profile_text.h"
#include "twitter/social_graph.h"
#include "twitter/tweet_text.h"

namespace stir::common {
class ThreadPool;
}

namespace stir::io {
class CorpusWriter;
class TruthSidecarWriter;
}

namespace stir::twitter {

/// Everything needed to synthesize one corpus. The two presets mirror the
/// paper's datasets (see the slide-deck table): KoreanConfig — 52.2k users
/// crawled from a seed, 11.1M tweets, sparse GPS; LadyGagaConfig — a
/// topical Search/Streaming-API corpus of globally scattered, more mobile
/// users.
struct DatasetGeneratorOptions {
  uint64_t seed = 20120401;
  int64_t num_users = 5220;

  /// Per-user lifetime tweet count ~ LogNormal(ln(median), sigma), capped
  /// (the real timeline API capped history at 3200).
  double tweets_per_user_median = 100.0;
  double tweets_per_user_sigma = 1.2;
  int64_t max_tweets_per_user = 3200;

  /// Fraction of users who ever attach GPS (smart-device geotaggers).
  /// Drives the paper's brutal funnel: 30k well-defined profiles but only
  /// ~1k users with GPS tweets.
  double geotagger_fraction = 0.035;

  ProfileTextOptions profile;
  MobilityModelOptions mobility;
  TweetTextOptions tweet_text;

  /// Sample users via a synthetic follower graph + seed BFS crawl (the
  /// Korean dataset) rather than direct enumeration (the Search-API
  /// dataset).
  bool use_social_graph = true;
  /// Graph population relative to num_users when crawling.
  double graph_oversample = 1.6;
  double mean_following = 12.0;

  /// Fraction of non-GPS tweets materialized with full records (for API
  /// and summarizer demos); the rest exist only in total_tweets counts.
  double plain_tweet_sample = 0.0005;

  SimTime start_time = 0;
  int64_t duration_days = 120;
};

/// Ground truth retained alongside a generated corpus; consumed only by
/// evaluation code, never by the analysis pipeline.
struct GroundTruth {
  std::unordered_map<UserId, MobilityProfile> mobility;
  std::unordered_map<UserId, ProfileStyle> profile_style;
};

struct GeneratedData {
  Dataset dataset;
  GroundTruth truth;
  /// Crawl accounting (zero when use_social_graph is false).
  int64_t crawl_requests = 0;
  SimTime crawl_elapsed_seconds = 0;
};

/// Accounting from a streamed generation (GenerateToCorpus): the crawl
/// numbers GeneratedData would carry, without the dataset.
struct CorpusStreamInfo {
  int64_t crawl_requests = 0;
  SimTime crawl_elapsed_seconds = 0;
};

/// Deterministic corpus synthesizer over an AdminDb.
class DatasetGenerator {
 public:
  /// `db` must outlive the generator.
  DatasetGenerator(const geo::AdminDb* db, DatasetGeneratorOptions options);

  /// Synthesizes on a pool of common::HardwareThreads() workers. The
  /// output is a function of the options alone, whatever the pool
  /// (DESIGN.md §14).
  GeneratedData Generate() const;
  /// Synthesizes on `pool` (inline when null or workerless).
  GeneratedData Generate(common::ThreadPool* pool) const;

  /// Streams the synthesized corpus straight into a v3 arena corpus
  /// writer without ever holding a Dataset or GroundTruth in memory —
  /// generator memory stays O(users) while the writer spills tweet
  /// columns to disk, so corpora far beyond RAM are producible. Users
  /// and their tweets are emitted in exactly Generate()'s order and the
  /// shared synthesis core draws from the same seeded streams, so the
  /// written corpus is field-identical to
  /// CorpusWriter::WriteDataset(Generate().dataset). The caller owns
  /// `writer` and calls Finish() on it afterwards. The sinks run on the
  /// calling thread only.
  ///
  /// `truth` (optional) receives one name-keyed TruthRecord per user as
  /// the walk passes it — the ground truth the in-memory path keeps in
  /// GroundTruth, persisted out of core so `stir_cli infer --corpus` can
  /// score predictions without regenerating. The caller owns it and
  /// calls Finish() afterwards.
  ///
  /// Synthesizes on a pool of common::HardwareThreads() workers; the
  /// corpus is the same for every pool.
  StatusOr<CorpusStreamInfo> GenerateToCorpus(
      io::CorpusWriter* writer, io::TruthSidecarWriter* truth = nullptr) const;
  /// Synthesizes on `pool` (inline when null or workerless).
  StatusOr<CorpusStreamInfo> GenerateToCorpus(io::CorpusWriter* writer,
                                              io::TruthSidecarWriter* truth,
                                              common::ThreadPool* pool) const;

  /// The Korean dataset preset at `scale` (1.0 = the paper's 52,200
  /// crawled users / ~11M tweets; default 0.1 runs in seconds).
  static DatasetGeneratorOptions KoreanConfig(double scale = 0.1);
  /// The "Lady Gaga" topical dataset preset (use with
  /// geo::AdminDb::WorldCities()).
  static DatasetGeneratorOptions LadyGagaConfig(double scale = 0.1);

  const DatasetGeneratorOptions& options() const { return options_; }

 private:
  /// Consecutive crawl-order users synthesized off the calling thread:
  /// what the sinks receive for them, tweet ids aside.
  struct UserBlock;

  SimTime SampleTimestamp(Rng& rng) const;

  /// Synthesizes `users[i]` from `block->rngs[i]` into `block`'s columns
  /// (mobility, profile, tweets), replacing what they held.
  void SynthesizeBlock(std::span<const UserId> users, UserBlock* block) const;

  /// The shared synthesis core: samples the user population (graph crawl
  /// or enumeration) and walks every user's timeline on `pool`, handing
  /// each User and Tweet to the sinks on the calling thread in a single
  /// deterministic order. `on_truth` observes each user's ground truth as
  /// the walk passes it, its spots passed beside a profile that holds
  /// none (the in-memory path fills GroundTruth; the streaming path
  /// writes the sidecar or drops it). A sink returning a non-OK status
  /// aborts the walk; no task is left running on `pool`.
  template <typename UserSink, typename TweetSink, typename TruthSink>
  Status Synthesize(UserSink&& on_user, TweetSink&& on_tweet,
                    TruthSink&& on_truth, CorpusStreamInfo* info,
                    common::ThreadPool* pool) const;

  const geo::AdminDb* db_;
  DatasetGeneratorOptions options_;
  MobilityModel mobility_model_;
  ProfileTextGenerator profile_generator_;
  TweetTextGenerator tweet_generator_;
  DiscreteDistribution hour_dist_;
};

}  // namespace stir::twitter

#endif  // STIR_TWITTER_GENERATOR_H_
