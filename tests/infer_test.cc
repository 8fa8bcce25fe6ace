// stir::infer battery (DESIGN.md §16): strategy math (argmax weights,
// value-determined tie-break, confidence shrinkage and abstention), the
// shared night window, gazetteer text votes, the ground-truth sidecar
// round-trip, the blindness contract (corrupting profile strings and the
// truth sidecar leaves predictions byte-identical), determinism of
// infer_user responses across worker counts and across the three corpus
// formats, streaming-seal equivalence with the batch build, and a
// paper-literal evidence oracle the optimised builder must match.
// Labelled `infer`; runs in the TSan lane.

#include "infer/home_inferrer.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/study.h"
#include "core/study_config.h"
#include "geo/admin_db.h"
#include "gtest/gtest.h"
#include "infer/eval.h"
#include "infer/inference_index.h"
#include "io/corpus.h"
#include "io/corpus_reader.h"
#include "io/truth_sidecar.h"
#include "serve/server.h"
#include "serve/study_index.h"
#include "stream/engine.h"
#include "text/gazetteer_matcher.h"
#include "text/normalize.h"
#include "twitter/dataset.h"
#include "twitter/generator.h"

namespace stir::infer {
namespace {

using geo::AdminDb;

/// Value dump of every evidence field in index order. Two indexes with
/// equal fingerprints answer every infer_user request identically (the
/// strategies are pure functions of this evidence).
std::string Fingerprint(const InferenceIndex& index) {
  std::ostringstream out;
  for (const UserEvidence& user : index.users()) {
    out << 'u' << user.user << ':' << user.tweets << ',' << user.gps_tweets
        << ',' << user.text_votes << '[';
    for (const RegionEvidence& region : user.regions) {
      out << region.region << ':' << region.gps_tweets << ','
          << region.night_gps_tweets << ',' << region.text_votes << ';';
    }
    out << "]\n";
  }
  return out.str();
}

/// Every strategy's full Inference over every user — the decision
/// surface the blindness and determinism tests compare.
std::string Decisions(const InferenceIndex& index, const InferParams& params) {
  std::ostringstream out;
  for (int s = 0; s < kNumStrategies; ++s) {
    auto inferrer = MakeInferrer(static_cast<Strategy>(s), params);
    for (const UserEvidence& user : index.users()) {
      Inference inference = inferrer->Infer(user);
      out << inferrer->name() << '/' << user.user << ':' << inference.decided
          << ',' << inference.district << ',' << inference.confidence << ','
          << inference.evidence << ',' << inference.night_evidence << '\n';
    }
  }
  return out.str();
}

UserEvidence TwoRegionGps(int64_t gps_a, int64_t night_a, int64_t gps_b,
                          int64_t night_b) {
  UserEvidence evidence;
  evidence.user = 7;
  evidence.gps_tweets = gps_a + gps_b;
  evidence.tweets = evidence.gps_tweets;
  RegionEvidence a;
  a.region = 3;
  a.gps_tweets = gps_a;
  a.night_gps_tweets = night_a;
  RegionEvidence b;
  b.region = 9;
  b.gps_tweets = gps_b;
  b.night_gps_tweets = night_b;
  evidence.regions = {a, b};
  return evidence;
}

/// The calibrated score the header documents:
/// (top / total) * (total / (total + prior)).
double ExpectedConfidence(double top, double total, double prior) {
  return (top / total) * (total / (total + prior));
}

TEST(InferStrategyTest, StrategyNamesRoundTrip) {
  for (int s = 0; s < kNumStrategies; ++s) {
    Strategy strategy = static_cast<Strategy>(s);
    Strategy parsed;
    ASSERT_TRUE(StrategyFromString(StrategyToString(strategy), &parsed))
        << StrategyToString(strategy);
    EXPECT_EQ(parsed, strategy);
  }
  Strategy ignored;
  EXPECT_FALSE(StrategyFromString("astral", &ignored));
  EXPECT_FALSE(StrategyFromString("", &ignored));
}

TEST(InferStrategyTest, SpatialPicksGpsModeAndBreaksTiesBySmallerRegion) {
  InferParams params;
  auto spatial = MakeInferrer(Strategy::kSpatial, params);

  Inference mode = spatial->Infer(TwoRegionGps(4, 0, 9, 0));
  ASSERT_TRUE(mode.decided);
  EXPECT_EQ(mode.district, 9);
  EXPECT_DOUBLE_EQ(mode.confidence, ExpectedConfidence(9, 13, 2));

  // Equal weight: the smaller region id wins, on every platform.
  Inference tie = spatial->Infer(TwoRegionGps(5, 0, 5, 0));
  ASSERT_TRUE(tie.decided);
  EXPECT_EQ(tie.district, 3);
}

TEST(InferStrategyTest, DiurnalUpweightsNightTweetsWhereSpatialIsFooled) {
  // The commuter shape: the workplace district (3) out-tweets home (9)
  // by raw count, but home owns the night window.
  UserEvidence commuter = TwoRegionGps(5, 0, 4, 3);
  InferParams params;  // night_weight = 3.

  Inference by_count = MakeInferrer(Strategy::kSpatial, params)->Infer(commuter);
  ASSERT_TRUE(by_count.decided);
  EXPECT_EQ(by_count.district, 3);

  // Diurnal weight: 5 vs 4 + (3-1)*3 = 10.
  Inference by_night = MakeInferrer(Strategy::kDiurnal, params)->Infer(commuter);
  ASSERT_TRUE(by_night.decided);
  EXPECT_EQ(by_night.district, 9);
  EXPECT_EQ(by_night.night_evidence, 3);
  EXPECT_DOUBLE_EQ(by_night.confidence, ExpectedConfidence(10, 15, 2));

  // night_weight = 1 collapses diurnal back onto spatial.
  params.night_weight = 1;
  Inference flat = MakeInferrer(Strategy::kDiurnal, params)->Infer(commuter);
  ASSERT_TRUE(flat.decided);
  EXPECT_EQ(flat.district, 3);
}

TEST(InferStrategyTest, ConfidenceShrinkageAbstainsOnThinEvidence) {
  InferParams params;  // shrinkage_prior = 2, abstain_threshold = 0.4.
  auto spatial = MakeInferrer(Strategy::kSpatial, params);

  // One tweet is a "100% match" before shrinkage; after, 1/3 < 0.4.
  Inference thin = spatial->Infer(TwoRegionGps(1, 0, 0, 0));
  EXPECT_FALSE(thin.decided);
  EXPECT_DOUBLE_EQ(thin.confidence, ExpectedConfidence(1, 1, 2));

  // Ten unanimous tweets clear the bar: 10/12.
  Inference solid = spatial->Infer(TwoRegionGps(10, 0, 0, 0));
  ASSERT_TRUE(solid.decided);
  EXPECT_DOUBLE_EQ(solid.confidence, ExpectedConfidence(10, 10, 2));

  // The threshold is a knob: raise it above that score and the same
  // evidence abstains, with the score it fell short at reported.
  params.abstain_threshold = 0.95;
  Inference gated = MakeInferrer(Strategy::kSpatial, params)
                        ->Infer(TwoRegionGps(10, 0, 0, 0));
  EXPECT_FALSE(gated.decided);
  EXPECT_DOUBLE_EQ(gated.confidence, ExpectedConfidence(10, 10, 2));

  // No evidence of the strategy's kind at all: abstain at confidence 0.
  UserEvidence none;
  none.user = 1;
  Inference empty = spatial->Infer(none);
  EXPECT_FALSE(empty.decided);
  EXPECT_DOUBLE_EQ(empty.confidence, 0.0);
}

TEST(InferStrategyTest, TextStrategyVotesWhereGpsStrategiesAbstain) {
  UserEvidence evidence;
  evidence.user = 5;
  evidence.tweets = 12;
  evidence.text_votes = 9;
  RegionEvidence a;
  a.region = 4;
  a.text_votes = 7;
  RegionEvidence b;
  b.region = 11;
  b.text_votes = 2;
  evidence.regions = {a, b};

  InferParams params;
  Inference text = MakeInferrer(Strategy::kText, params)->Infer(evidence);
  ASSERT_TRUE(text.decided);
  EXPECT_EQ(text.district, 4);
  EXPECT_EQ(text.night_evidence, 0);
  EXPECT_DOUBLE_EQ(text.confidence, ExpectedConfidence(7, 9, 2));

  EXPECT_FALSE(MakeInferrer(Strategy::kSpatial, params)->Infer(evidence).decided);
  EXPECT_FALSE(MakeInferrer(Strategy::kDiurnal, params)->Infer(evidence).decided);
}

TEST(InferStrategyTest, NightWindowIsSharedWithTheGenerator) {
  for (int hour = 0; hour < 24; ++hour) {
    EXPECT_EQ(IsNightHour(hour), hour >= kNightStartHour || hour < kNightEndHour)
        << hour;
  }
  EXPECT_TRUE(IsNightHour(23));
  EXPECT_TRUE(IsNightHour(0));
  EXPECT_FALSE(IsNightHour(12));
}

TEST(EvidenceBuilderTest, CountsNightGpsTweetsViaTheSharedWindow) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  EvidenceBuilder builder(&db);
  const geo::Region& region = db.regions()[0];

  twitter::Tweet noon;
  noon.id = 1;
  noon.user = 42;
  noon.time = 12 * kSecondsPerHour;
  noon.gps = region.centroid;
  builder.AddTweet(noon);

  twitter::Tweet night = noon;
  night.id = 2;
  night.time = 23 * kSecondsPerHour;
  builder.AddTweet(night);

  std::shared_ptr<const InferenceIndex> index = builder.Build();
  const UserEvidence* evidence = index->FindUser(42);
  ASSERT_NE(evidence, nullptr);
  EXPECT_EQ(evidence->gps_tweets, 2);
  ASSERT_EQ(evidence->regions.size(), 1u);
  EXPECT_EQ(evidence->regions[0].region, region.id);
  EXPECT_EQ(evidence->regions[0].gps_tweets, 2);
  EXPECT_EQ(evidence->regions[0].night_gps_tweets, 1);
}

TEST(EvidenceBuilderTest, UnambiguousDistrictMentionsBecomeTextVotes) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  // A county name that names exactly one district in the gazetteer.
  const geo::Region* unique_region = nullptr;
  for (const geo::Region& region : db.regions()) {
    int with_name = 0;
    for (const geo::Region& other : db.regions()) {
      if (other.county == region.county) ++with_name;
    }
    if (with_name == 1) {
      unique_region = &region;
      break;
    }
  }
  ASSERT_NE(unique_region, nullptr) << "gazetteer has no unique county";

  EvidenceBuilder builder(&db);
  twitter::Tweet tweet;
  tweet.id = 1;
  tweet.user = 9;
  tweet.time = 10 * kSecondsPerHour;
  tweet.text = "having lunch in " + unique_region->county + " today";
  builder.AddTweet(tweet);

  std::shared_ptr<const InferenceIndex> index = builder.Build();
  const UserEvidence* evidence = index->FindUser(9);
  ASSERT_NE(evidence, nullptr);
  EXPECT_EQ(evidence->gps_tweets, 0);
  EXPECT_EQ(evidence->text_votes, 1);
  ASSERT_EQ(evidence->regions.size(), 1u);
  EXPECT_EQ(evidence->regions[0].region, unique_region->id);
  EXPECT_EQ(evidence->regions[0].text_votes, 1);
}

TEST(TruthSidecarTest, RoundTripsRecordsThroughDisk) {
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "stir_truth_rt";
  std::filesystem::create_directories(dir);
  const std::string corpus = (dir / "corpus.stir").string();
  const std::string path = io::TruthSidecarPath(corpus);
  EXPECT_EQ(path, corpus + ".truth");

  io::TruthRecord first;
  first.user = 12;
  first.archetype = "commuter";
  first.home_state = "Seoul";
  first.home_county = "Mapo-gu";
  first.claimed_state = "Seoul";
  first.claimed_county = "Mapo-gu";
  io::TruthRecord second;
  second.user = 40;
  second.archetype = "relocated";
  second.home_state = "Busan";
  second.home_county = "Haeundae-gu";
  second.claimed_state = "Seoul";
  second.claimed_county = "Gangnam-gu";

  io::TruthSidecarWriter writer(path, /*fsync=*/false);
  writer.Add(first);
  writer.Add(second);
  EXPECT_EQ(writer.record_count(), 2);
  ASSERT_TRUE(writer.Finish().ok());

  auto read = io::ReadTruthSidecar(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), 2u);
  EXPECT_EQ((*read)[0].user, 12);
  EXPECT_EQ((*read)[0].archetype, "commuter");
  EXPECT_EQ((*read)[0].home_county, "Mapo-gu");
  EXPECT_EQ((*read)[1].user, 40);
  EXPECT_EQ((*read)[1].home_state, "Busan");
  EXPECT_EQ((*read)[1].claimed_county, "Gangnam-gu");

  // A file without the magic is rejected, not misread.
  const std::string bogus = (dir / "bogus.truth").string();
  std::ofstream(bogus) << "not a sidecar\n1\t2\t3\n";
  EXPECT_FALSE(io::ReadTruthSidecar(bogus).ok());
}

// ---------------------------------------------------------------------------
// Evidence oracle: a paper-literal fold that shares nothing with the
// builder but the gazetteer, its matcher's full Match and AdminDb::Locate.

struct OracleRegion {
  int64_t gps_tweets = 0;
  int64_t night_gps_tweets = 0;
  int64_t text_votes = 0;
};
struct OracleUser {
  int64_t tweets = 0;
  std::map<geo::RegionId, OracleRegion> regions;
};
using OracleEvidence = std::map<twitter::UserId, OracleUser>;

OracleEvidence OracleFold(const twitter::Dataset& dataset, const AdminDb& db) {
  text::GazetteerMatcher matcher(&db);
  OracleEvidence users;
  for (const twitter::User& user : dataset.users()) users[user.id];
  for (const twitter::Tweet& tweet : dataset.tweets()) {
    OracleUser& user = users[tweet.user];
    ++user.tweets;
    if (tweet.gps.has_value()) {
      auto located = db.Locate(*tweet.gps);
      if (located.ok()) {
        OracleRegion& region = user.regions[*located];
        ++region.gps_tweets;
        if (IsNightHour(HourOfDay(tweet.time))) ++region.night_gps_tweets;
      }
    }
    for (const text::PhraseMatch& match :
         matcher.Match(text::TokenizeTweet(tweet.text))) {
      if (match.phrase->kind == text::PhraseKind::kCounty && !match.fuzzy &&
          match.phrase->regions.size() == 1) {
        ++user.regions[match.phrase->regions.front()].text_votes;
      }
    }
  }
  return users;
}

void ExpectMatchesOracle(const InferenceIndex& index,
                         const OracleEvidence& oracle,
                         const std::string& label) {
  ASSERT_EQ(index.user_count(), oracle.size()) << label;
  auto expected = oracle.begin();
  for (const UserEvidence& user : index.users()) {
    SCOPED_TRACE(label + " user " + std::to_string(user.user));
    ASSERT_EQ(user.user, expected->first);
    const OracleUser& want = expected->second;
    EXPECT_EQ(user.tweets, want.tweets);
    int64_t gps_tweets = 0;
    int64_t text_votes = 0;
    for (const auto& [id, region] : want.regions) {
      gps_tweets += region.gps_tweets;
      text_votes += region.text_votes;
    }
    EXPECT_EQ(user.gps_tweets, gps_tweets);
    EXPECT_EQ(user.text_votes, text_votes);
    ASSERT_EQ(user.regions.size(), want.regions.size());
    auto want_region = want.regions.begin();
    for (const RegionEvidence& region : user.regions) {
      EXPECT_EQ(region.region, want_region->first);
      EXPECT_EQ(region.gps_tweets, want_region->second.gps_tweets);
      EXPECT_EQ(region.night_gps_tweets, want_region->second.night_gps_tweets);
      EXPECT_EQ(region.text_votes, want_region->second.text_votes);
      ++want_region;
    }
    ++expected;
  }
}

twitter::GeneratedData GenerateForOracle(uint64_t seed) {
  twitter::DatasetGeneratorOptions options =
      twitter::DatasetGenerator::KoreanConfig(0.02);
  options.seed = seed;
  options.mobility.night_home_bias = 0.65;
  return twitter::DatasetGenerator(&AdminDb::KoreanDistricts(), options)
      .Generate();
}

TEST(EvidenceOracleTest, BatchBuildsMatchThePaperLiteralFold) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("stir_infer_oracle_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  for (uint64_t seed : {1u, 7u, 7777u}) {
    const std::string label = "seed " + std::to_string(seed);
    twitter::GeneratedData data = GenerateForOracle(seed);
    const OracleEvidence oracle = OracleFold(data.dataset, db);
    int64_t text_votes = 0;
    for (const auto& [id, user] : oracle) {
      for (const auto& [region_id, region] : user.regions) {
        text_votes += region.text_votes;
      }
    }
    EXPECT_GT(text_votes, 0) << label;

    ExpectMatchesOracle(InferenceIndex::Build(data.dataset, db), oracle,
                        label + " (dataset)");
    const std::string path = (dir / (std::to_string(seed) + ".stir")).string();
    ASSERT_TRUE(io::CorpusWriter::WriteDataset(data.dataset, path).ok());
    auto view = io::CorpusView::Open(path);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    ExpectMatchesOracle(InferenceIndex::Build(*view, db), oracle,
                        label + " (view)");
  }
  std::filesystem::remove_all(dir);
}

TEST(EvidenceOracleTest, ShuffledArrivalsWithBuildsBetweenMatchTheBatchBuild) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  twitter::GeneratedData data = GenerateForOracle(7);
  const std::vector<twitter::User>& users = data.dataset.users();
  std::map<twitter::UserId, std::vector<const twitter::Tweet*>> tweets_of;
  for (const twitter::Tweet& tweet : data.dataset.tweets()) {
    tweets_of[tweet.user].push_back(&tweet);
  }

  std::vector<twitter::UserId> arrival;
  for (const twitter::User& user : users) arrival.push_back(user.id);
  Rng rng(42);
  rng.Shuffle(arrival);

  // Users arrive in shuffled id order, a quarter between each Build();
  // every snapshot equals the batch build over the users seen so far.
  EvidenceBuilder builder(&db);
  std::map<twitter::UserId, bool> seen;
  const size_t quarter = arrival.size() / 4 + 1;
  for (size_t begin = 0; begin < arrival.size(); begin += quarter) {
    const size_t end = std::min(arrival.size(), begin + quarter);
    for (size_t i = begin; i < end; ++i) {
      builder.AddUser(arrival[i]);
      seen[arrival[i]] = true;
    }
    for (size_t i = begin; i < end; ++i) {
      for (const twitter::Tweet* tweet : tweets_of[arrival[i]]) {
        builder.AddTweet(*tweet);
      }
    }
    twitter::Dataset prefix;
    for (const twitter::User& user : users) {
      if (seen.count(user.id) != 0) prefix.AddUser(user);
    }
    for (const twitter::Tweet& tweet : data.dataset.tweets()) {
      if (seen.count(tweet.user) != 0) prefix.AddTweet(tweet);
    }
    EXPECT_EQ(Fingerprint(*builder.Build()),
              Fingerprint(InferenceIndex::Build(prefix, db)))
        << end << " of " << arrival.size() << " users";
  }
  EXPECT_EQ(Fingerprint(*builder.Build()),
            Fingerprint(InferenceIndex::Build(data.dataset, db)));
}

// ---------------------------------------------------------------------------
// Shared corpus fixture for the heavier determinism / blindness tests.

class InferCorpusTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = &AdminDb::KoreanDistricts();
    twitter::DatasetGeneratorOptions options =
        twitter::DatasetGenerator::KoreanConfig(0.02);
    options.mobility.night_home_bias = 0.65;
    twitter::DatasetGenerator generator(db_, options);
    data_ = new twitter::GeneratedData(generator.Generate());
    ASSERT_GT(data_->dataset.users().size(), 100u);
    index_ = new InferenceIndex(
        InferenceIndex::Build(data_->dataset, *db_));
    ASSERT_FALSE(index_->empty());
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  static std::filesystem::path FreshDir(const std::string& name) {
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }

  static const AdminDb* db_;
  static twitter::GeneratedData* data_;
  static InferenceIndex* index_;
};

const AdminDb* InferCorpusTest::db_ = nullptr;
twitter::GeneratedData* InferCorpusTest::data_ = nullptr;
InferenceIndex* InferCorpusTest::index_ = nullptr;

TEST_F(InferCorpusTest, PredictionsAreBlindToProfileStringsAndTruthSidecar) {
  const std::string baseline_evidence = Fingerprint(*index_);
  const std::string baseline_decisions = Decisions(*index_, InferParams{});

  // Corrupt every profile string (the attribute the paper studies and
  // the one attribute inference must never read) and rebuild: the
  // evidence and every decision are byte-identical.
  twitter::Dataset corrupted;
  for (twitter::User user : data_->dataset.users()) {
    user.profile_location = "###corrupted###";
    user.handle = "@@@";
    corrupted.AddUser(std::move(user));
  }
  for (const twitter::Tweet& tweet : data_->dataset.tweets()) {
    corrupted.AddTweet(tweet);
  }
  InferenceIndex from_corrupted = InferenceIndex::Build(corrupted, *db_);
  EXPECT_EQ(Fingerprint(from_corrupted), baseline_evidence);
  EXPECT_EQ(Decisions(from_corrupted, InferParams{}), baseline_decisions);

  // Corrupt the on-disk truth sidecar: evaluation breaks loudly, the
  // inference pipeline does not notice (it never opens the file).
  std::filesystem::path dir = FreshDir("stir_infer_blind");
  const std::string corpus_path = (dir / "corpus.stir").string();
  io::CorpusWriter writer(corpus_path);
  io::TruthSidecarWriter truth(io::TruthSidecarPath(corpus_path),
                               /*fsync=*/false);
  twitter::DatasetGeneratorOptions options =
      twitter::DatasetGenerator::KoreanConfig(0.02);
  options.mobility.night_home_bias = 0.65;
  twitter::DatasetGenerator generator(db_, options);
  ASSERT_TRUE(generator.GenerateToCorpus(&writer, &truth).ok());
  ASSERT_TRUE(writer.Finish().ok());
  ASSERT_TRUE(truth.Finish().ok());
  {
    std::ofstream scribble(io::TruthSidecarPath(corpus_path));
    scribble << "XXXXXXXX scrambled beyond recognition\n";
  }
  EXPECT_FALSE(io::ReadTruthSidecar(io::TruthSidecarPath(corpus_path)).ok());

  io::CorpusSpec spec;
  spec.corpus_path = corpus_path;
  auto reader = io::CorpusReader::Open(spec);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  InferenceIndex from_corpus = InferenceIndex::Build(reader->view(), *db_);
  EXPECT_EQ(Fingerprint(from_corpus), baseline_evidence);
  EXPECT_EQ(Decisions(from_corpus, InferParams{}), baseline_decisions);
}

TEST_F(InferCorpusTest, EvidenceIsIdenticalAcrossAllThreeCorpusFormats) {
  std::filesystem::path dir = FreshDir("stir_infer_formats");
  const std::string baseline = Fingerprint(*index_);

  // The TSV interchange pair (decoded into an in-memory arena view).
  const std::string users_tsv = (dir / "users.tsv").string();
  const std::string tweets_tsv = (dir / "tweets.tsv").string();
  ASSERT_TRUE(data_->dataset.SaveTsv(users_tsv, tweets_tsv).ok());

  // A self-contained arena corpus file.
  const std::string corpus_v3 = (dir / "corpus.stir").string();
  ASSERT_TRUE(
      io::CorpusWriter::WriteDataset(data_->dataset, corpus_v3).ok());

  struct Case {
    const char* name;
    io::CorpusSpec spec;
    io::CorpusFormat format;
  };
  std::vector<Case> cases(2);
  cases[0].name = "tsv";
  cases[0].spec.users_path = users_tsv;
  cases[0].spec.tweets_path = tweets_tsv;
  cases[0].format = io::CorpusFormat::kTsv;
  cases[1].name = "v3";
  cases[1].spec.corpus_path = corpus_v3;
  cases[1].format = io::CorpusFormat::kArenaV3;

  for (const Case& c : cases) {
    auto reader = io::CorpusReader::Open(c.spec);
    ASSERT_TRUE(reader.ok()) << c.name << ": " << reader.status().ToString();
    EXPECT_EQ(reader->format(), c.format) << c.name;
    // The view path the CLI and the server use.
    InferenceIndex from_view = InferenceIndex::Build(reader->view(), *db_);
    EXPECT_EQ(Fingerprint(from_view), baseline) << c.name << " (view)";
    auto dataset = reader->Materialize();
    ASSERT_TRUE(dataset.ok()) << c.name;
    InferenceIndex from_rows = InferenceIndex::Build(**dataset, *db_);
    EXPECT_EQ(Fingerprint(from_rows), baseline) << c.name << " (rows)";
  }

  // The third encoding: the dataset's in-memory arena image.
  auto image = io::CorpusView::FromDataset(data_->dataset);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(Fingerprint(InferenceIndex::Build(*image, *db_)), baseline)
      << "in-memory image";
}

TEST_F(InferCorpusTest, InferResponsesAreByteIdenticalAcrossWorkerCounts) {
  core::CorrelationStudy study(db_);
  core::StudyResult result = study.Run(data_->dataset);
  serve::StudyIndex study_index = serve::StudyIndex::Build(result, *db_);

  // Every user via every strategy, plus a miss and two typed rejections.
  std::string payload;
  int64_t id = 0;
  const char* strategies[] = {"", "spatial", "diurnal", "text"};
  for (const UserEvidence& user : index_->users()) {
    std::string strategy = strategies[id % 4];
    payload += "{\"v\":1,\"id\":" + std::to_string(id++) +
               ",\"method\":\"infer_user\",\"params\":{\"user\":" +
               std::to_string(user.user) +
               (strategy.empty() ? std::string()
                                 : ",\"strategy\":\"" + strategy + "\"") +
               "}}\n";
  }
  payload += "{\"v\":1,\"id\":900000,\"method\":\"infer_user\","
             "\"params\":{\"user\":987654321}}\n";
  payload += "{\"v\":1,\"id\":900001,\"method\":\"infer_user\","
             "\"params\":{\"user\":1,\"strategy\":\"astral\"}}\n";
  payload += "{\"v\":1,\"id\":900002,\"method\":\"infer_user\"}\n";

  std::string baseline;
  for (int workers : {1, 2, 8}) {
    serve::ServeOptions options;
    options.workers = workers;
    options.infer_index = index_;
    serve::Server server(&study_index, options);
    std::istringstream in(payload);
    std::ostringstream out;
    server.ServeStream(in, out);
    server.Drain();
    if (workers == 1) {
      baseline = out.str();
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(out.str(), baseline) << "workers=" << workers;
    }
  }
}

TEST_F(InferCorpusTest, StreamingSealsMatchBatchBuildsAndStayStable) {
  const std::vector<twitter::User>& users = data_->dataset.users();
  const std::vector<twitter::Tweet>& tweets = data_->dataset.tweets();

  stream::StreamEngine engine(db_, StudyConfig{}, stream::StreamOptions{});
  ASSERT_TRUE(engine.Open().ok());
  for (const twitter::User& user : users) {
    ASSERT_TRUE(engine.AddUser(user).ok());
  }

  // Half-prefix seal == batch build over the same prefix.
  const size_t half = tweets.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(engine.AddTweet(tweets[i], static_cast<int64_t>(i)).ok());
  }
  engine.SealEpoch();
  twitter::Dataset prefix;
  for (const twitter::User& user : users) prefix.AddUser(user);
  for (size_t i = 0; i < half; ++i) prefix.AddTweet(tweets[i]);
  EXPECT_EQ(Fingerprint(*engine.CurrentInferIndex()),
            Fingerprint(InferenceIndex::Build(prefix, *db_)));

  // Full-log seal == the fixture's one-shot batch index; a second seal
  // with nothing ingested republishes the identical evidence.
  for (size_t i = half; i < tweets.size(); ++i) {
    ASSERT_TRUE(engine.AddTweet(tweets[i], static_cast<int64_t>(i)).ok());
  }
  engine.SealEpoch();
  const std::string sealed = Fingerprint(*engine.CurrentInferIndex());
  EXPECT_EQ(sealed, Fingerprint(*index_));
  engine.SealEpoch();
  EXPECT_EQ(Fingerprint(*engine.CurrentInferIndex()), sealed);

  // Any epoch partition (auto-seal every 512 tweets) converges to the
  // same evidence — seal boundaries never leak into the index.
  stream::StreamOptions chunked;
  chunked.epoch_size = 512;
  stream::StreamEngine partitioned(db_, StudyConfig{}, chunked);
  ASSERT_TRUE(partitioned.Open().ok());
  for (const twitter::User& user : users) {
    ASSERT_TRUE(partitioned.AddUser(user).ok());
  }
  for (size_t i = 0; i < tweets.size(); ++i) {
    ASSERT_TRUE(
        partitioned.AddTweet(tweets[i], static_cast<int64_t>(i)).ok());
  }
  partitioned.SealEpoch();
  EXPECT_GT(partitioned.epochs_sealed(), 1);
  EXPECT_EQ(Fingerprint(*partitioned.CurrentInferIndex()), sealed);
}

TEST_F(InferCorpusTest, EvaluationScoresAgainstTruthAndSkipsUnseenUsers) {
  std::vector<io::TruthRecord> truth;
  for (const auto& [user_id, profile] : data_->truth.mobility) {
    io::TruthRecord record;
    record.user = user_id;
    record.archetype = twitter::ArchetypeToString(profile.archetype);
    const geo::Region& home = db_->region(profile.home);
    record.home_state = home.state;
    record.home_county = home.county;
    const geo::Region& claimed = db_->region(profile.claimed);
    record.claimed_state = claimed.state;
    record.claimed_county = claimed.county;
    truth.push_back(std::move(record));
  }
  // A truth row the evidence never saw must be skipped, not scored.
  io::TruthRecord phantom;
  phantom.user = 987654321;
  phantom.archetype = "homebody";
  phantom.home_state = "Seoul";
  phantom.home_county = "Mapo-gu";
  truth.push_back(phantom);

  StrategyEval eval =
      EvaluateStrategy(*index_, truth, Strategy::kDiurnal, InferParams{});
  EXPECT_GT(eval.users, 0);
  EXPECT_LT(eval.users, static_cast<int64_t>(truth.size()));
  EXPECT_EQ(eval.decided + eval.abstained, eval.users);
  EXPECT_LE(eval.correct_district, eval.decided);
  EXPECT_LE(eval.correct_district, eval.correct_province);
  EXPECT_GE(eval.AbstainRate(), 0.0);
  EXPECT_LE(eval.AbstainRate(), 1.0);
  EXPECT_GE(eval.GpsRichAccuracyDistrict(), 0.0);
  EXPECT_LE(eval.gps_rich_users, eval.users);

  // The report renders every strategy without falling over.
  std::vector<StrategyEval> evals;
  for (int s = 0; s < kNumStrategies; ++s) {
    evals.push_back(EvaluateStrategy(*index_, truth, static_cast<Strategy>(s),
                                     InferParams{}));
  }
  std::string report = RenderEvalReport(evals);
  EXPECT_NE(report.find("diurnal"), std::string::npos);
  EXPECT_NE(report.find("abstain"), std::string::npos);
}

}  // namespace
}  // namespace stir::infer
