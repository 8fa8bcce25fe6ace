#include "twitter/generator.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/thread_pool.h"
#include "io/atomic_file.h"
#include "io/corpus.h"
#include "io/truth_sidecar.h"
#include "obs/metrics.h"

namespace stir::twitter {
namespace {

struct StreamedCrcs {
  uint32_t corpus = 0;
  uint32_t truth = 0;
};

/// Streams one configuration through GenerateToCorpus, with a truth
/// sidecar, into temp files named for this process (ctest may run
/// several cases at once), and returns the CRC32C of each file.
StreamedCrcs StreamAndHash(const geo::AdminDb& db,
                           const DatasetGeneratorOptions& options,
                           const std::string& tag, common::ThreadPool* pool) {
  const std::string corpus_path =
      (std::filesystem::temp_directory_path() /
       (std::to_string(::getpid()) + "_generator_pin_" + tag + ".corpus"))
          .string();
  const std::string truth_path = io::TruthSidecarPath(corpus_path);
  io::CorpusWriterOptions writer_options;
  writer_options.fsync = false;
  io::CorpusWriter writer(corpus_path, writer_options);
  io::TruthSidecarWriter truth(truth_path, /*fsync=*/false);
  StreamedCrcs crcs;
  auto info =
      DatasetGenerator(&db, options).GenerateToCorpus(&writer, &truth, pool);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  auto stats = writer.Finish();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(truth.Finish().ok());
  auto corpus_bytes = io::ReadFileToString(corpus_path);
  auto truth_bytes = io::ReadFileToString(truth_path);
  EXPECT_TRUE(corpus_bytes.ok() && truth_bytes.ok());
  if (corpus_bytes.ok()) crcs.corpus = Crc32c(*corpus_bytes);
  if (truth_bytes.ok()) crcs.truth = Crc32c(*truth_bytes);
  std::filesystem::remove(corpus_path);
  std::filesystem::remove(truth_path);
  return crcs;
}

/// Pools no output may depend on: inline (no workers), then 1, 2 and 8
/// workers.
std::vector<std::unique_ptr<common::ThreadPool>> Pools() {
  std::vector<std::unique_ptr<common::ThreadPool>> pools;
  for (int workers : {0, 1, 2, 8}) {
    pools.push_back(std::make_unique<common::ThreadPool>(workers));
  }
  return pools;
}

std::string PoolLabel(const common::ThreadPool& pool) {
  return "workers=" + std::to_string(pool.size());
}

// The generator must reproduce every historical corpus bit for bit: the
// constants below are the CRC32C of files written before the spot
// tables, the CSR follower graph, the open-addressing string arena and
// the parallel walk existed (g++ 12, glibc 2.36; libm's exp/pow/log
// feed the doubles). A change in the sequence of Rng draws or in any
// output byte moves them, on any pool.
void ExpectPinnedCorpora(common::ThreadPool* pool) {
  const geo::AdminDb& korean = geo::AdminDb::KoreanDistricts();
  struct Case {
    const char* tag;
    DatasetGeneratorOptions options;
    uint32_t corpus_crc;
    uint32_t truth_crc;
  };
  std::vector<Case> cases;
  auto seed1 = DatasetGenerator::KoreanConfig(0.05);
  seed1.seed = 1;
  cases.push_back({"korean_seed1", seed1, 0x8a43e9bfu, 0x066a9f81u});
  auto seed7777 = DatasetGenerator::KoreanConfig(0.05);
  seed7777.seed = 7777;
  cases.push_back({"korean_seed7777", seed7777, 0xe1fb32a2u, 0x4abc19a0u});
  auto night = seed1;
  night.mobility.night_home_bias = 0.65;
  night.plain_tweet_sample = 0.01;
  cases.push_back({"korean_night", night, 0xe7c7d129u, 0x066a9f81u});
  for (const Case& c : cases) {
    StreamedCrcs crcs = StreamAndHash(korean, c.options, c.tag, pool);
    EXPECT_EQ(crcs.corpus, c.corpus_crc) << c.tag << std::hex << " corpus 0x"
                                         << crcs.corpus;
    EXPECT_EQ(crcs.truth, c.truth_crc) << c.tag << std::hex << " truth 0x"
                                       << crcs.truth;
  }
  // The Search-API branch: no graph, world cities, a 2,500 km radius.
  StreamedCrcs gaga = StreamAndHash(geo::AdminDb::WorldCities(),
                                    DatasetGenerator::LadyGagaConfig(0.05),
                                    "ladygaga", pool);
  EXPECT_EQ(gaga.corpus, 0x27a1c7fcu) << std::hex << "0x" << gaga.corpus;
  EXPECT_EQ(gaga.truth, 0x5b91c911u) << std::hex << "0x" << gaga.truth;
}

TEST(GeneratorTest, StreamedCorpusBytesArePinned) {
  for (const auto& pool : Pools()) {
    SCOPED_TRACE(PoolLabel(*pool));
    ExpectPinnedCorpora(pool.get());
  }
}

TEST(GeneratorTest, TruthSpotsArePinned) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto config = DatasetGenerator::KoreanConfig(0.05);
  config.seed = 1;
  for (const auto& pool : Pools()) {
    GeneratedData data = DatasetGenerator(&db, config).Generate(pool.get());
    // Users in corpus order; each spot as its region and weight bits.
    std::string bytes;
    auto put = [&](const void* p, size_t n) {
      bytes.append(static_cast<const char*>(p), n);
    };
    for (const User& user : data.dataset.users()) {
      const MobilityProfile& truth = data.truth.mobility.at(user.id);
      put(&truth.geotag_rate, sizeof(truth.geotag_rate));
      for (const ActivitySpot& spot : truth.spots) {
        put(&spot.region, sizeof(spot.region));
        put(&spot.weight, sizeof(spot.weight));
      }
    }
    EXPECT_EQ(Crc32c(bytes), 0x360f3e83u)
        << PoolLabel(*pool) << std::hex << " 0x" << Crc32c(bytes);
  }
}

void ExpectSameData(const GeneratedData& a, const GeneratedData& b,
                    const std::string& label) {
  EXPECT_EQ(a.crawl_requests, b.crawl_requests) << label;
  EXPECT_EQ(a.crawl_elapsed_seconds, b.crawl_elapsed_seconds) << label;
  ASSERT_EQ(a.dataset.users().size(), b.dataset.users().size()) << label;
  for (size_t i = 0; i < a.dataset.users().size(); ++i) {
    const User& x = a.dataset.users()[i];
    const User& y = b.dataset.users()[i];
    ASSERT_EQ(x.id, y.id) << label << " user row " << i;
    EXPECT_EQ(x.handle, y.handle) << label << " user " << x.id;
    EXPECT_EQ(x.profile_location, y.profile_location) << label << " user "
                                                      << x.id;
    EXPECT_EQ(x.total_tweets, y.total_tweets) << label << " user " << x.id;
    const MobilityProfile& m = a.truth.mobility.at(x.id);
    const MobilityProfile& n = b.truth.mobility.at(x.id);
    EXPECT_EQ(m.user, n.user) << label << " user " << x.id;
    EXPECT_EQ(m.archetype, n.archetype) << label << " user " << x.id;
    EXPECT_EQ(m.home, n.home) << label << " user " << x.id;
    EXPECT_EQ(m.claimed, n.claimed) << label << " user " << x.id;
    EXPECT_EQ(m.geotag_rate, n.geotag_rate) << label << " user " << x.id;
    EXPECT_EQ(m.geotag_away_only, n.geotag_away_only) << label << " user "
                                                      << x.id;
    ASSERT_EQ(m.spots.size(), n.spots.size()) << label << " user " << x.id;
    for (size_t k = 0; k < m.spots.size(); ++k) {
      EXPECT_EQ(m.spots[k].region, n.spots[k].region) << label;
      EXPECT_EQ(m.spots[k].weight, n.spots[k].weight) << label;
    }
    EXPECT_EQ(a.truth.profile_style.at(x.id), b.truth.profile_style.at(x.id))
        << label << " user " << x.id;
  }
  EXPECT_EQ(a.truth.mobility.size(), b.truth.mobility.size()) << label;
  EXPECT_EQ(a.truth.profile_style.size(), b.truth.profile_style.size())
      << label;
  ASSERT_EQ(a.dataset.tweets().size(), b.dataset.tweets().size()) << label;
  for (size_t i = 0; i < a.dataset.tweets().size(); ++i) {
    const Tweet& x = a.dataset.tweets()[i];
    const Tweet& y = b.dataset.tweets()[i];
    ASSERT_EQ(x.id, y.id) << label << " tweet row " << i;
    EXPECT_EQ(x.user, y.user) << label << " tweet " << x.id;
    EXPECT_EQ(x.time, y.time) << label << " tweet " << x.id;
    ASSERT_EQ(x.gps.has_value(), y.gps.has_value()) << label << " tweet "
                                                    << x.id;
    if (x.gps) {
      EXPECT_EQ(x.gps->lat, y.gps->lat) << label << " tweet " << x.id;
      EXPECT_EQ(x.gps->lng, y.gps->lng) << label << " tweet " << x.id;
    }
    EXPECT_EQ(x.text, y.text) << label << " tweet " << x.id;
  }
}

// The in-memory path, field by field: several blocks of users, plain
// tweets on every user, and the night-bias draw order.
TEST(GeneratorTest, InMemoryDataIsTheSameOnEveryPool) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto config = DatasetGenerator::KoreanConfig(0.05);
  config.seed = 11;
  config.plain_tweet_sample = 0.01;
  auto night = config;
  night.mobility.night_home_bias = 0.65;
  for (const auto& options : {config, night}) {
    const DatasetGenerator generator(&db, options);
    common::ThreadPool inline_pool(0);
    const GeneratedData want = generator.Generate(&inline_pool);
    ASSERT_GT(want.dataset.users().size(), 2000u);
    ASSERT_GT(want.dataset.tweets().size(), 2000u);
    for (const auto& pool : Pools()) {
      ExpectSameData(want, generator.Generate(pool.get()), PoolLabel(*pool));
    }
    ExpectSameData(want, generator.Generate(), "default pool");
  }
}

// A sink that fails mid-walk ends the call with its status: no block is
// submitted after it, and none is still queued or running when the call
// returns (the blocks read the generator and the crawl's user list, both
// gone right after).
TEST(GeneratorTest, FailingSinkStopsTheWalkOnEveryPool) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto config = DatasetGenerator::KoreanConfig(0.3);
  config.seed = 1;
  // The writer spills every 1,024 tweets into a directory that does not
  // exist, so its first spill fails about a tenth of the way in.
  const std::string missing =
      (std::filesystem::temp_directory_path() /
       (std::to_string(::getpid()) + "_generator_missing_dir") / "c.corpus")
          .string();
  io::CorpusWriterOptions writer_options;
  writer_options.fsync = false;
  writer_options.tweet_spill_rows = 1024;
  for (int workers : {0, 1, 2, 8}) {
    const std::string label = "workers=" + std::to_string(workers);
    // Tasks a full generation submits (graph shards and every block).
    obs::MetricsRegistry full_metrics;
    {
      common::ThreadPool pool(workers, &full_metrics);
      io::CorpusWriter writer(
          (std::filesystem::temp_directory_path() /
           (std::to_string(::getpid()) + "_generator_full.corpus"))
              .string(),
          writer_options);
      ASSERT_TRUE(DatasetGenerator(&db, config)
                      .GenerateToCorpus(&writer, nullptr, &pool)
                      .ok())
          << label;
    }
    const int64_t full =
        full_metrics.GetCounter("pool.tasks_submitted")->value();

    obs::MetricsRegistry metrics;
    common::ThreadPool pool(workers, &metrics);
    io::CorpusWriter writer(missing, writer_options);
    auto generator = std::make_unique<DatasetGenerator>(&db, config);
    auto info = generator->GenerateToCorpus(&writer, nullptr, &pool);
    generator.reset();
    ASSERT_FALSE(info.ok()) << label;
    EXPECT_TRUE(info.status().IsIOError()) << label << " "
                                           << info.status().ToString();
    EXPECT_NE(info.status().ToString().find(missing), std::string::npos)
        << label << " " << info.status().ToString();
    EXPECT_EQ(metrics.GetGauge("pool.queue_depth")->value(), 0) << label;
    EXPECT_LT(metrics.GetCounter("pool.tasks_submitted")->value(), full)
        << label;
    EXPECT_GT(writer.tweet_count(), 0) << label;
  }
}

TEST(GeneratorTest, DeterministicForSeed) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto config = DatasetGenerator::KoreanConfig(0.01);
  GeneratedData a = DatasetGenerator(&db, config).Generate();
  GeneratedData b = DatasetGenerator(&db, config).Generate();
  ASSERT_EQ(a.dataset.users().size(), b.dataset.users().size());
  ASSERT_EQ(a.dataset.tweets().size(), b.dataset.tweets().size());
  for (size_t i = 0; i < a.dataset.users().size(); ++i) {
    EXPECT_EQ(a.dataset.users()[i].profile_location,
              b.dataset.users()[i].profile_location);
    EXPECT_EQ(a.dataset.users()[i].total_tweets,
              b.dataset.users()[i].total_tweets);
  }
  for (size_t i = 0; i < a.dataset.tweets().size(); ++i) {
    EXPECT_EQ(a.dataset.tweets()[i].time, b.dataset.tweets()[i].time);
    EXPECT_EQ(a.dataset.tweets()[i].gps.has_value(),
              b.dataset.tweets()[i].gps.has_value());
  }
}

TEST(GeneratorTest, UserCountMatchesConfig) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto config = DatasetGenerator::KoreanConfig(0.02);
  GeneratedData data = DatasetGenerator(&db, config).Generate();
  EXPECT_EQ(static_cast<int64_t>(data.dataset.users().size()),
            config.num_users);
  EXPECT_EQ(data.truth.mobility.size(), data.dataset.users().size());
  EXPECT_EQ(data.truth.profile_style.size(), data.dataset.users().size());
  EXPECT_GT(data.crawl_requests, 0);
}

TEST(GeneratorTest, EveryTweetBelongsToAKnownUserAndWindow) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto config = DatasetGenerator::KoreanConfig(0.01);
  GeneratedData data = DatasetGenerator(&db, config).Generate();
  SimTime horizon = config.start_time +
                    config.duration_days * kSecondsPerDay;
  for (const Tweet& tweet : data.dataset.tweets()) {
    EXPECT_NE(data.dataset.FindUser(tweet.user), nullptr);
    EXPECT_GE(tweet.time, config.start_time);
    EXPECT_LT(tweet.time, horizon);
    if (tweet.gps.has_value()) {
      EXPECT_TRUE(tweet.gps->IsValid());
      EXPECT_TRUE(db.Locate(*tweet.gps).ok());
    }
  }
}

TEST(GeneratorTest, GpsTweetsComeOnlyFromGeotaggers) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto config = DatasetGenerator::KoreanConfig(0.02);
  GeneratedData data = DatasetGenerator(&db, config).Generate();
  for (const Tweet& tweet : data.dataset.tweets()) {
    if (!tweet.gps.has_value()) continue;
    const MobilityProfile& truth = data.truth.mobility.at(tweet.user);
    EXPECT_GT(truth.geotag_rate, 0.0);
  }
}

TEST(GeneratorTest, GpsTweetRegionsAreActivitySpots) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto config = DatasetGenerator::KoreanConfig(0.01);
  GeneratedData data = DatasetGenerator(&db, config).Generate();
  for (const Tweet& tweet : data.dataset.tweets()) {
    if (!tweet.gps.has_value()) continue;
    auto located = db.Locate(*tweet.gps);
    ASSERT_TRUE(located.ok());
    const MobilityProfile& truth = data.truth.mobility.at(tweet.user);
    bool is_spot = false;
    for (const ActivitySpot& spot : truth.spots) {
      is_spot |= (spot.region == *located);
    }
    EXPECT_TRUE(is_spot) << "tweet region not an activity spot";
  }
}

TEST(GeneratorTest, TweetCountsPlausible) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto config = DatasetGenerator::KoreanConfig(0.05);
  GeneratedData data = DatasetGenerator(&db, config).Generate();
  int64_t total = data.dataset.total_tweet_count();
  // ~213 tweets/user at the paper's ratio (11.14M / 52.2k); wide band.
  double per_user =
      static_cast<double>(total) /
      static_cast<double>(data.dataset.users().size());
  EXPECT_GT(per_user, 120.0);
  EXPECT_LT(per_user, 350.0);
  for (const User& user : data.dataset.users()) {
    EXPECT_GE(user.total_tweets, 1);
    EXPECT_LE(user.total_tweets, config.max_tweets_per_user);
  }
  // GPS share ~0.2-0.4% of the corpus.
  double gps_share = static_cast<double>(data.dataset.gps_tweet_count()) /
                     static_cast<double>(total);
  EXPECT_GT(gps_share, 0.0005);
  EXPECT_LT(gps_share, 0.01);
}

TEST(GeneratorTest, LadyGagaConfigIsTopical) {
  const geo::AdminDb& world = geo::AdminDb::WorldCities();
  auto config = DatasetGenerator::LadyGagaConfig(0.05);
  GeneratedData data = DatasetGenerator(&world, config).Generate();
  EXPECT_EQ(data.crawl_requests, 0);  // Search API, not a crawl
  ASSERT_GT(data.dataset.tweets().size(), 0u);
  for (const Tweet& tweet : data.dataset.tweets()) {
    EXPECT_NE(tweet.text.find("lady gaga"), std::string::npos);
  }
}

TEST(GeneratorTest, DiurnalCycleHasEveningPeakAndNightTrough) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto config = DatasetGenerator::KoreanConfig(0.02);
  config.plain_tweet_sample = 0.01;  // denser sample for the histogram
  GeneratedData data = DatasetGenerator(&db, config).Generate();
  int64_t evening = 0, night = 0;
  for (const Tweet& tweet : data.dataset.tweets()) {
    int hour = HourOfDay(tweet.time);
    if (hour >= 18 && hour <= 22) ++evening;
    if (hour >= 2 && hour <= 5) ++night;
  }
  EXPECT_GT(evening, night * 3);
}

}  // namespace
}  // namespace stir::twitter
