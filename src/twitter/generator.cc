#include "twitter/generator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
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

template <typename UserSink, typename TweetSink, typename TruthSink>
Status DatasetGenerator::Synthesize(UserSink&& on_user, TweetSink&& on_tweet,
                                    TruthSink&& on_truth,
                                    CorpusStreamInfo* info) const {
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
    SocialGraph graph = SocialGraph::Generate(graph_options, graph_rng);

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
  TweetId next_tweet_id = 1;
  double mu = std::log(options_.tweets_per_user_median);
  for (UserId uid : user_ids) {
    Rng rng = master.Fork(0x75736572ULL ^ static_cast<uint64_t>(uid));

    bool is_geotagger = rng.Bernoulli(options_.geotagger_fraction);
    MobilityProfile mobility =
        mobility_model_.GenerateProfile(uid, is_geotagger, rng);
    GeneratedProfileText profile =
        profile_generator_.Generate(mobility.claimed, rng);

    User user;
    user.id = uid;
    user.handle = StrFormat("user%06lld", static_cast<long long>(uid));
    user.profile_location = profile.text;
    int64_t total = static_cast<int64_t>(
        std::llround(std::exp(rng.Normal(mu, options_.tweets_per_user_sigma))));
    user.total_tweets =
        std::clamp<int64_t>(total, 1, options_.max_tweets_per_user);

    STIR_RETURN_IF_ERROR(on_user(user));
    on_truth(user, mobility, profile.style);

    // With the night-home bias enabled the timestamp must be drawn before
    // the region (the hour feeds the redirect), so that path draws in a
    // different order — its own new, equally deterministic sequence. The
    // bias-free path keeps the historical draw order exactly, so every
    // corpus generated before the bias existed is reproduced bit for bit.
    const bool night_bias = options_.mobility.night_home_bias > 0.0;
    if (is_geotagger) {
      // Full per-tweet walk: region, geotag decision, materialize GPS
      // tweets, sample plain ones.
      for (int64_t t = 0; t < user.total_tweets; ++t) {
        SimTime time = night_bias ? SampleTimestamp(rng) : 0;
        geo::RegionId region =
            night_bias
                ? mobility_model_.SampleTweetRegion(mobility, HourOfDay(time),
                                                    rng)
                : mobility_model_.SampleTweetRegion(mobility, rng);
        bool geotag = mobility_model_.SampleGeotag(mobility, region, rng);
        if (!geotag && !rng.Bernoulli(options_.plain_tweet_sample)) continue;
        Tweet tweet;
        tweet.id = next_tweet_id++;
        tweet.user = uid;
        tweet.time = night_bias ? time : SampleTimestamp(rng);
        if (geotag) tweet.gps = db_->SamplePointIn(region, rng);
        tweet.text = tweet_generator_.Generate(region, rng);
        STIR_RETURN_IF_ERROR(on_tweet(std::move(tweet)));
      }
    } else if (options_.plain_tweet_sample > 0.0) {
      // No GPS ever: materialize only the sampled plain tweets, skipping
      // the per-tweet walk (the 11M-tweet corpus generates in seconds).
      int64_t sampled = std::min(
          user.total_tweets,
          rng.Poisson(static_cast<double>(user.total_tweets) *
                      options_.plain_tweet_sample));
      for (int64_t t = 0; t < sampled; ++t) {
        SimTime time = night_bias ? SampleTimestamp(rng) : 0;
        geo::RegionId region =
            night_bias
                ? mobility_model_.SampleTweetRegion(mobility, HourOfDay(time),
                                                    rng)
                : mobility_model_.SampleTweetRegion(mobility, rng);
        Tweet tweet;
        tweet.id = next_tweet_id++;
        tweet.user = uid;
        tweet.time = night_bias ? time : SampleTimestamp(rng);
        tweet.text = tweet_generator_.Generate(region, rng);
        STIR_RETURN_IF_ERROR(on_tweet(std::move(tweet)));
      }
    }
  }
  return Status::OK();
}

GeneratedData DatasetGenerator::Generate() const {
  GeneratedData out;
  CorpusStreamInfo info;
  Status status = Synthesize(
      [&](const User& user) {
        out.dataset.AddUser(user);
        return Status::OK();
      },
      [&](Tweet tweet) {
        out.dataset.AddTweet(std::move(tweet));
        return Status::OK();
      },
      [&](const User& user, const MobilityProfile& mobility,
          ProfileStyle style) {
        out.truth.mobility.emplace(user.id, mobility);
        out.truth.profile_style.emplace(user.id, style);
      },
      &info);
  STIR_CHECK(status.ok()) << status.ToString();
  out.crawl_requests = info.crawl_requests;
  out.crawl_elapsed_seconds = info.crawl_elapsed_seconds;
  return out;
}

StatusOr<CorpusStreamInfo> DatasetGenerator::GenerateToCorpus(
    io::CorpusWriter* writer, io::TruthSidecarWriter* truth) const {
  STIR_CHECK(writer != nullptr);
  CorpusStreamInfo info;
  STIR_RETURN_IF_ERROR(Synthesize(
      [&](const User& user) { return writer->AddUser(user); },
      [&](Tweet tweet) { return writer->AddTweet(tweet); },
      [&](const User& user, const MobilityProfile& mobility, ProfileStyle) {
        if (truth == nullptr) return;
        io::TruthRecord record;
        record.user = user.id;
        record.archetype = ArchetypeToString(mobility.archetype);
        const geo::Region& home = db_->region(mobility.home);
        record.home_state = home.state;
        record.home_county = home.county;
        const geo::Region& claimed = db_->region(mobility.claimed);
        record.claimed_state = claimed.state;
        record.claimed_county = claimed.county;
        truth->Add(record);
      },
      &info));
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
