#include "twitter/generator.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "io/atomic_file.h"
#include "io/corpus.h"
#include "io/truth_sidecar.h"

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
                           const std::string& tag) {
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
  auto info = DatasetGenerator(&db, options).GenerateToCorpus(&writer, &truth);
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

// The generator must reproduce every historical corpus bit for bit: the
// constants below are the CRC32C of files written before the spot
// tables, the CSR follower graph and the open-addressing string arena
// existed (g++ 12, glibc 2.36; libm's exp/pow/log feed the doubles).
// A change in the sequence of Rng draws or in any output byte moves them.
TEST(GeneratorTest, StreamedCorpusBytesArePinned) {
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
    StreamedCrcs crcs = StreamAndHash(korean, c.options, c.tag);
    EXPECT_EQ(crcs.corpus, c.corpus_crc) << c.tag << std::hex << " corpus 0x"
                                         << crcs.corpus;
    EXPECT_EQ(crcs.truth, c.truth_crc) << c.tag << std::hex << " truth 0x"
                                       << crcs.truth;
  }
  // The Search-API branch: no graph, world cities, a 2,500 km radius.
  StreamedCrcs gaga = StreamAndHash(geo::AdminDb::WorldCities(),
                                    DatasetGenerator::LadyGagaConfig(0.05),
                                    "ladygaga");
  EXPECT_EQ(gaga.corpus, 0x27a1c7fcu) << std::hex << "0x" << gaga.corpus;
  EXPECT_EQ(gaga.truth, 0x5b91c911u) << std::hex << "0x" << gaga.truth;
}

TEST(GeneratorTest, TruthSpotsArePinned) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto config = DatasetGenerator::KoreanConfig(0.05);
  config.seed = 1;
  GeneratedData data = DatasetGenerator(&db, config).Generate();
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
  EXPECT_EQ(Crc32c(bytes), 0x360f3e83u) << std::hex << "0x" << Crc32c(bytes);
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
