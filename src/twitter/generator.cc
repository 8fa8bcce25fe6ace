#include "twitter/generator.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "io/corpus.h"
#include "io/truth_sidecar.h"

namespace stir::twitter {

namespace {

/// Relative tweet volume by hour of day: quiet overnight, commute and
/// lunch bumps, evening peak (the diurnal pattern of the Korean corpus).
const std::vector<double>& HourWeights() {
  static const std::vector<double>& weights = *new std::vector<double>{
      0.35, 0.20, 0.12, 0.08, 0.06, 0.08,  // 00-05
      0.18, 0.45, 0.80, 0.75, 0.65, 0.70,  // 06-11
      0.95, 0.85, 0.70, 0.68, 0.72, 0.85,  // 12-17
      1.00, 1.05, 1.10, 1.15, 1.00, 0.65,  // 18-23
  };
  return weights;
}

/// Users per block: enough work per task (a few ms) to hide the
/// hand-off, few enough that a window of blocks stays small. A small
/// corpus is cut into at least four blocks per worker, of at least
/// kMinBlockUsers, so that it spreads too.
constexpr size_t kBlockUsers = 512;
constexpr size_t kMinBlockUsers = 64;
/// Column room a block reserves per user. A Korean-preset user holds 1-9
/// spots (4.6 on average), 0.74 materialized tweets and 62 bytes of
/// text; the headroom covers a block of heavy geotaggers, which would
/// otherwise grow its columns on a worker's heap and keep them there.
constexpr size_t kSpotsPerUser = 8;
constexpr size_t kTweetsPerUser = 2;
constexpr size_t kTextPerUser = 128;

}  // namespace

DatasetGenerator::DatasetGenerator(const geo::AdminDb* db,
                                   DatasetGeneratorOptions options)
    : db_(db),
      options_(std::move(options)),
      mobility_model_(db, options_.mobility),
      profile_generator_(db, options_.profile),
      tweet_generator_(db, options_.tweet_text),
      hour_dist_(HourWeights()) {
  STIR_CHECK(db != nullptr);
  STIR_CHECK_GE(options_.num_users, 1);
  STIR_CHECK_GT(options_.duration_days, 0);
}

SimTime DatasetGenerator::SampleTimestamp(Rng& rng) const {
  int64_t day = rng.UniformInt(0, options_.duration_days - 1);
  int64_t hour = static_cast<int64_t>(hour_dist_.Sample(rng));
  int64_t second_of_hour = rng.UniformInt(0, kSecondsPerHour - 1);
  return options_.start_time + day * kSecondsPerDay + hour * kSecondsPerHour +
         second_of_hour;
}

/// Flat columns, so a block costs a handful of allocations and the next
/// block reuses them: strings lie back to back in `text` (per user its
/// handle, its profile location, then its tweets' texts) and spots in
/// `spots`, each row holding where its own pieces end.
struct DatasetGenerator::UserBlock {
  struct UserRow {
    MobilityProfile mobility;  // spots kept in `spots`
    ProfileStyle style;
    int64_t total_tweets;
    size_t handle_end;
    size_t profile_end;
    size_t spots_end;
    size_t tweets_end;
  };
  struct TweetRow {
    SimTime time;
    std::optional<geo::LatLng> gps;
    size_t text_end;
  };
  /// One fork per user, made by the submitting thread.
  std::vector<Rng> rngs;
  std::vector<UserRow> users;
  std::vector<ActivitySpot> spots;
  std::vector<TweetRow> tweets;
  std::string text;
};

void DatasetGenerator::SynthesizeBlock(std::span<const UserId> users,
                                       UserBlock* block) const {
  block->users.clear();
  block->spots.clear();
  block->tweets.clear();
  block->text.clear();
  const double mu = std::log(options_.tweets_per_user_median);
  // With the night-home bias enabled the timestamp must be drawn before
  // the region (the hour feeds the redirect), so that path draws in a
  // different order — its own new, equally deterministic sequence. The
  // bias-free path keeps the historical draw order exactly, so every
  // corpus generated before the bias existed is reproduced bit for bit.
  const bool night_bias = options_.mobility.night_home_bias > 0.0;
  for (size_t i = 0; i < users.size(); ++i) {
    const UserId uid = users[i];
    Rng& rng = block->rngs[i];

    bool is_geotagger = rng.Bernoulli(options_.geotagger_fraction);
    MobilityProfile mobility =
        mobility_model_.GenerateProfile(uid, is_geotagger, rng);
    GeneratedProfileText profile =
        profile_generator_.Generate(mobility.claimed, rng);
    block->text += StrFormat("user%06lld", static_cast<long long>(uid));
    const size_t handle_end = block->text.size();
    block->text += profile.text;
    const size_t profile_end = block->text.size();
    int64_t total = static_cast<int64_t>(
        std::llround(std::exp(rng.Normal(mu, options_.tweets_per_user_sigma))));
    total = std::clamp<int64_t>(total, 1, options_.max_tweets_per_user);

    const auto add_tweet = [&](SimTime time, geo::RegionId region,
                               std::optional<geo::LatLng> gps) {
      block->text += tweet_generator_.Generate(region, rng);
      block->tweets.push_back({time, gps, block->text.size()});
    };
    if (is_geotagger) {
      // Full per-tweet walk: region, geotag decision, materialize GPS
      // tweets, sample plain ones.
      for (int64_t t = 0; t < total; ++t) {
        SimTime time = night_bias ? SampleTimestamp(rng) : 0;
        geo::RegionId region =
            night_bias
                ? mobility_model_.SampleTweetRegion(mobility, HourOfDay(time),
                                                    rng)
                : mobility_model_.SampleTweetRegion(mobility, rng);
        bool geotag = mobility_model_.SampleGeotag(mobility, region, rng);
        if (!geotag && !rng.Bernoulli(options_.plain_tweet_sample)) continue;
        if (!night_bias) time = SampleTimestamp(rng);
        std::optional<geo::LatLng> gps;
        if (geotag) gps = db_->SamplePointIn(region, rng);
        add_tweet(time, region, gps);
      }
    } else if (options_.plain_tweet_sample > 0.0) {
      // No GPS ever: materialize only the sampled plain tweets, skipping
      // the per-tweet walk (the 11M-tweet corpus generates in seconds).
      int64_t sampled = std::min(
          total, rng.Poisson(static_cast<double>(total) *
                             options_.plain_tweet_sample));
      for (int64_t t = 0; t < sampled; ++t) {
        SimTime time = night_bias ? SampleTimestamp(rng) : 0;
        geo::RegionId region =
            night_bias
                ? mobility_model_.SampleTweetRegion(mobility, HourOfDay(time),
                                                    rng)
                : mobility_model_.SampleTweetRegion(mobility, rng);
        if (!night_bias) time = SampleTimestamp(rng);
        add_tweet(time, region, std::nullopt);
      }
    }
    block->spots.insert(block->spots.end(), mobility.spots.begin(),
                        mobility.spots.end());
    std::vector<ActivitySpot>().swap(mobility.spots);
    block->users.push_back({std::move(mobility), profile.style, total,
                            handle_end, profile_end, block->spots.size(),
                            block->tweets.size()});
  }
}

template <typename UserSink, typename TweetSink, typename TruthSink>
Status DatasetGenerator::Synthesize(UserSink&& on_user, TweetSink&& on_tweet,
                                    TruthSink&& on_truth,
                                    CorpusStreamInfo* info,
                                    common::ThreadPool* pool) const {
  common::ThreadPool inline_pool(0);
  if (pool == nullptr) pool = &inline_pool;
  Rng master(options_.seed);

  // --- User sample -----------------------------------------------------
  // Either crawl a synthetic follower graph from its best-connected seed
  // (Korean dataset methodology) or enumerate directly (Search API).
  std::vector<UserId> user_ids;
  if (options_.use_social_graph) {
    SocialGraphOptions graph_options;
    graph_options.num_users = std::max<int64_t>(
        options_.num_users + 1,
        static_cast<int64_t>(static_cast<double>(options_.num_users) *
                             options_.graph_oversample));
    graph_options.mean_following = options_.mean_following;
    Rng graph_rng = master.Fork(0x6772617068ULL);  // "graph"
    SocialGraph graph = SocialGraph::Generate(graph_options, graph_rng, pool);

    CrawlerOptions crawl_options;
    crawl_options.target_users = options_.num_users;
    Crawler crawler(&graph, crawl_options);
    auto crawl = crawler.Crawl(graph.MostFollowedUser());
    STIR_CHECK(crawl.ok()) << crawl.status().ToString();
    user_ids = std::move(crawl->users);
    info->crawl_requests = crawl->requests_issued;
    info->crawl_elapsed_seconds = crawl->elapsed_seconds;
    // A sparse graph component can run out before the target; top up with
    // unvisited ids (ascending, same as the historical linear scan, but
    // via a visited bitmap — O(graph) instead of O(graph * crawled)) so
    // the corpus size is deterministic.
    if (static_cast<int64_t>(user_ids.size()) < options_.num_users) {
      std::vector<bool> visited(static_cast<size_t>(graph.num_users()), false);
      for (UserId u : user_ids) visited[static_cast<size_t>(u)] = true;
      for (UserId u = 0;
           static_cast<int64_t>(user_ids.size()) < options_.num_users &&
           u < graph.num_users();
           ++u) {
        if (!visited[static_cast<size_t>(u)]) user_ids.push_back(u);
      }
    }
  } else {
    user_ids.resize(static_cast<size_t>(options_.num_users));
    for (int64_t i = 0; i < options_.num_users; ++i) user_ids[i] = i;
  }
  user_ids.resize(
      std::min(user_ids.size(), static_cast<size_t>(options_.num_users)));

  // --- Per-user synthesis ----------------------------------------------
  // Blocks of consecutive users are synthesized on the pool and emitted
  // here, strictly in crawl order. Each user's Rng is forked from
  // `master` on this thread as its block is submitted, so every user
  // draws the stream the serial walk gave it; tweet ids are assigned as
  // tweets are emitted. At most `window` blocks exist at once, and each
  // emitted block's columns carry the next submission.
  const auto workers = static_cast<size_t>(pool->size());
  const size_t window = 2 * workers + 1;
  const size_t block_users =
      std::clamp(user_ids.size() / (4 * std::max<size_t>(1, workers)),
                 kMinBlockUsers, kBlockUsers);
  std::deque<std::future<UserBlock>> in_flight;
  // Blocks in flight read `user_ids`: wait for them however this returns.
  class Drain {
   public:
    explicit Drain(std::deque<std::future<UserBlock>>* blocks)
        : blocks_(blocks) {}
    Drain(const Drain&) = delete;
    Drain& operator=(const Drain&) = delete;
    ~Drain() {
      for (std::future<UserBlock>& block : *blocks_) block.wait();
    }

   private:
    std::deque<std::future<UserBlock>>* blocks_;
  } drain(&in_flight);
  UserBlock emitted;
  size_t submitted = 0;
  TweetId next_tweet_id = 1;
  // Reused for every user and tweet, so their strings keep capacity.
  User user;
  Tweet tweet;
  const auto emit = [&](const UserBlock& block) -> Status {
    size_t text = 0;
    size_t spot = 0;
    size_t t = 0;
    for (const UserBlock::UserRow& row : block.users) {
      user.id = row.mobility.user;
      user.handle.assign(block.text, text, row.handle_end - text);
      user.profile_location.assign(block.text, row.handle_end,
                                   row.profile_end - row.handle_end);
      user.total_tweets = row.total_tweets;
      text = row.profile_end;
      STIR_RETURN_IF_ERROR(on_user(user));
      on_truth(user.id, row.mobility,
               std::span<const ActivitySpot>(block.spots.data() + spot,
                                             row.spots_end - spot),
               row.style);
      spot = row.spots_end;
      for (; t < row.tweets_end; ++t) {
        const UserBlock::TweetRow& row_tweet = block.tweets[t];
        tweet.id = next_tweet_id++;
        tweet.user = user.id;
        tweet.time = row_tweet.time;
        tweet.gps = row_tweet.gps;
        tweet.text.assign(block.text, text, row_tweet.text_end - text);
        text = row_tweet.text_end;
        STIR_RETURN_IF_ERROR(on_tweet(tweet));
      }
    }
    return Status::OK();
  };
  Status status;
  while (status.ok() && (submitted < user_ids.size() || !in_flight.empty())) {
    if (submitted < user_ids.size() && in_flight.size() < window) {
      const size_t end = std::min(submitted + block_users, user_ids.size());
      const std::span<const UserId> users(user_ids.data() + submitted,
                                          end - submitted);
      // Sized here, so a block's memory comes from the heap the sinks
      // use; a worker allocates only for a block that outgrows it.
      UserBlock block = std::move(emitted);
      block.users.reserve(block_users);
      block.spots.reserve(block_users * kSpotsPerUser);
      block.tweets.reserve(block_users * kTweetsPerUser);
      block.text.reserve(block_users * kTextPerUser);
      block.rngs.clear();
      for (UserId uid : users) {
        block.rngs.push_back(
            master.Fork(0x75736572ULL ^ static_cast<uint64_t>(uid)));
      }
      in_flight.push_back(pool->Submit(
          [this, users, block = std::move(block)]() mutable {
            SynthesizeBlock(users, &block);
            return std::move(block);
          }));
      submitted = end;
      continue;
    }
    emitted = in_flight.front().get();
    in_flight.pop_front();
    status = emit(emitted);
  }
  return status;
}

GeneratedData DatasetGenerator::Generate() const {
  common::ThreadPool pool(common::HardwareThreads());
  return Generate(&pool);
}

GeneratedData DatasetGenerator::Generate(common::ThreadPool* pool) const {
  GeneratedData out;
  CorpusStreamInfo info;
  Status status = Synthesize(
      [&](const User& user) {
        out.dataset.AddUser(user);
        return Status::OK();
      },
      [&](const Tweet& tweet) {
        out.dataset.AddTweet(tweet);
        return Status::OK();
      },
      [&](UserId user, const MobilityProfile& mobility,
          std::span<const ActivitySpot> spots, ProfileStyle style) {
        MobilityProfile& truth =
            out.truth.mobility.emplace(user, mobility).first->second;
        truth.spots.assign(spots.begin(), spots.end());
        out.truth.profile_style.emplace(user, style);
      },
      &info, pool);
  STIR_CHECK(status.ok()) << status.ToString();
  out.crawl_requests = info.crawl_requests;
  out.crawl_elapsed_seconds = info.crawl_elapsed_seconds;
  return out;
}

StatusOr<CorpusStreamInfo> DatasetGenerator::GenerateToCorpus(
    io::CorpusWriter* writer, io::TruthSidecarWriter* truth) const {
  common::ThreadPool pool(common::HardwareThreads());
  return GenerateToCorpus(writer, truth, &pool);
}

StatusOr<CorpusStreamInfo> DatasetGenerator::GenerateToCorpus(
    io::CorpusWriter* writer, io::TruthSidecarWriter* truth,
    common::ThreadPool* pool) const {
  STIR_CHECK(writer != nullptr);
  CorpusStreamInfo info;
  io::TruthRecord record;  // reused, so its strings keep capacity
  STIR_RETURN_IF_ERROR(Synthesize(
      [&](const User& user) { return writer->AddUser(user); },
      [&](const Tweet& tweet) { return writer->AddTweet(tweet); },
      [&](UserId user, const MobilityProfile& mobility,
          std::span<const ActivitySpot>, ProfileStyle) {
        if (truth == nullptr) return;
        record.user = user;
        record.archetype = ArchetypeToString(mobility.archetype);
        const geo::Region& home = db_->region(mobility.home);
        record.home_state = home.state;
        record.home_county = home.county;
        const geo::Region& claimed = db_->region(mobility.claimed);
        record.claimed_state = claimed.state;
        record.claimed_county = claimed.county;
        truth->Add(record);
      },
      &info, pool));
  return info;
}

DatasetGeneratorOptions DatasetGenerator::KoreanConfig(double scale) {
  DatasetGeneratorOptions options;
  options.seed = 20120401;
  options.num_users =
      std::max<int64_t>(50, static_cast<int64_t>(52200.0 * scale));
  // 11.14M tweets / 52.2k users ~ 213 mean; median ~100 with sigma 1.23.
  options.tweets_per_user_median = 100.0;
  options.tweets_per_user_sigma = 1.23;
  options.geotagger_fraction = 0.035;
  options.use_social_graph = true;
  return options;
}

DatasetGeneratorOptions DatasetGenerator::LadyGagaConfig(double scale) {
  DatasetGeneratorOptions options;
  options.seed = 20120402;
  options.num_users =
      std::max<int64_t>(50, static_cast<int64_t>(20090.0 * scale));
  // Topical corpus: fewer tweets per matched user (only on-topic posts
  // enter a Search-API corpus).
  options.tweets_per_user_median = 12.0;
  options.tweets_per_user_sigma = 1.0;
  options.max_tweets_per_user = 400;
  // Smartphone-heavy fanbase: geotags are much more common.
  options.geotagger_fraction = 0.12;
  options.use_social_graph = false;  // Search/Streaming API, not a crawl
  options.plain_tweet_sample = 0.01;
  options.tweet_text.topic_keyword = "lady gaga";
  options.tweet_text.hashtags = {{"ladygaga", 0.35}, {"monster", 0.1}};
  // Fans are scattered and mobile: weaker home attachment, more
  // relocation/selective behaviour -> lower Top-1 share, larger None.
  options.mobility.frac_homebody = 0.30;
  options.mobility.frac_commuter = 0.10;
  options.mobility.frac_socialite = 0.18;
  options.mobility.frac_relocated = 0.26;
  options.mobility.frac_selective = 0.16;
  options.mobility.activity_radius_km = 2500.0;
  options.mobility.distance_decay_km = 600.0;
  options.mobility.relocation_min_km = 800.0;
  // Global fans: noisier profiles.
  options.profile.weights[static_cast<int>(ProfileStyle::kVague)] = 0.18;
  options.profile.weights[static_cast<int>(ProfileStyle::kStateOnly)] = 0.10;
  options.profile.weights[static_cast<int>(ProfileStyle::kCountyOnly)] = 0.22;
  options.profile.weights[static_cast<int>(ProfileStyle::kStateCounty)] = 0.26;
  return options;
}

}  // namespace stir::twitter
