// Robustness and failure-injection tests: random-input fuzzing of the
// parsers and quota/failure paths through the pipeline. Everything is
// seeded, so failures reproduce.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/xml.h"
#include "core/refinement.h"
#include "core/study.h"
#include "geo/reverse_geocoder.h"
#include "io/corpus.h"
#include "obs/metrics.h"
#include "text/location_parser.h"
#include "twitter/generator.h"

namespace stir {
namespace {

std::string RandomBytes(Rng& rng, int max_len) {
  int len = static_cast<int>(rng.UniformInt(0, max_len));
  std::string s;
  s.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.UniformInt(1, 255)));
  }
  return s;
}

std::string RandomPrintable(Rng& rng, int max_len) {
  static const char* kAlphabet =
      "abcdefghijklmnopqrstuvwxyz-., /#0123456789<>&\"'";
  int len = static_cast<int>(rng.UniformInt(0, max_len));
  std::string s;
  for (int i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng.UniformInt(0, 47)]);
  }
  return s;
}

TEST(FuzzTest, LocationParserNeverMisbehavesOnRandomBytes) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  text::LocationParser parser(&db);
  Rng rng(101);
  for (int i = 0; i < 3000; ++i) {
    std::string input =
        i % 2 == 0 ? RandomBytes(rng, 60) : RandomPrintable(rng, 60);
    text::ParsedLocation parsed = parser.Parse(input);
    // Quality is always a valid enum member; a well-defined result must
    // carry a valid region.
    int q = static_cast<int>(parsed.quality);
    EXPECT_GE(q, 0);
    EXPECT_LE(q, 4);
    if (parsed.quality == text::LocationQuality::kWellDefined) {
      EXPECT_GE(parsed.region, 0);
      EXPECT_LT(static_cast<size_t>(parsed.region), db.size());
    }
    if (parsed.quality == text::LocationQuality::kAmbiguous) {
      EXPECT_GE(parsed.candidates.size(), 2u);
    }
  }
}

TEST(FuzzTest, XmlParserNeverCrashesOnGarbage) {
  Rng rng(102);
  int parsed_ok = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string input = RandomPrintable(rng, 80);
    auto result = ParseXml(input);
    parsed_ok += result.ok();
    // ok or clean error; never UB (ASAN-checked in CI-style runs).
  }
  // Random printable strings essentially never form valid XML.
  EXPECT_LT(parsed_ok, 10);
}

TEST(FuzzTest, XmlRandomTreesRoundTrip) {
  Rng rng(103);
  for (int trial = 0; trial < 150; ++trial) {
    // Random tree: up to depth 3, random names/attrs/texts.
    auto name = [&] {
      std::string n = "e";
      for (int i = 0; i < 3; ++i) {
        n.push_back(static_cast<char>('a' + rng.UniformInt(0, 25)));
      }
      return n;
    };
    XmlNode root(name());
    std::vector<XmlNode*> frontier = {&root};
    int nodes = static_cast<int>(rng.UniformInt(1, 12));
    for (int i = 0; i < nodes; ++i) {
      XmlNode* parent = frontier[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(frontier.size()) - 1))];
      XmlNode& child = parent->AddChild(name());
      if (rng.Bernoulli(0.5)) {
        child.AddAttribute(name(), RandomPrintable(rng, 12));
      }
      if (rng.Bernoulli(0.5)) {
        // The parser trims surrounding whitespace from text content, so
        // generate pre-trimmed text for an exact round-trip.
        std::string text = RandomPrintable(rng, 20);
        size_t begin = text.find_first_not_of(' ');
        if (begin == std::string::npos) {
          text.clear();
        } else {
          text = text.substr(begin, text.find_last_not_of(' ') - begin + 1);
        }
        child.set_text(text);
      }
      frontier.push_back(&child);
    }
    auto reparsed = ParseXml(root.ToString());
    ASSERT_TRUE(reparsed.ok()) << root.ToString();
    EXPECT_EQ((*reparsed)->ToString(), root.ToString());
  }
}

TEST(FuzzTest, CsvRandomRowsRoundTrip) {
  Rng rng(104);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::string> fields;
    int n = static_cast<int>(rng.UniformInt(1, 8));
    for (int i = 0; i < n; ++i) {
      std::string f = RandomPrintable(rng, 20);
      // Embedded newlines are out of contract for single-row parsing.
      for (char& c : f) {
        if (c == '\n' || c == '\r') c = ' ';
      }
      fields.push_back(f);
    }
    auto parsed = ParseCsvRow(FormatCsvRow(fields));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, fields);
  }
}

TEST(FailureInjectionTest, QuotaLimitedGeocoderDegradesGracefully) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(0.05));
  twitter::GeneratedData data = generator.Generate();

  // Unlimited baseline.
  core::CorrelationStudy full_study(&db);
  core::StudyResult full = full_study.Run(data.dataset);
  ASSERT_GT(full.final_users, 10);

  // A quota far below the number of distinct GPS cells: the pipeline
  // must complete, count the failures, and keep a subset of users.
  StudyConfig starved_options;
  starved_options.geocoder.quota = 200;
  core::CorrelationStudy starved_study(&db, starved_options);
  core::StudyResult starved = starved_study.Run(data.dataset);
  EXPECT_GT(starved.funnel.geocode_failures, 0);
  EXPECT_LE(starved.final_users, full.final_users);
  EXPECT_GT(starved.final_users, 0);  // cache still serves repeat cells
  // The well-defined gate is text-only and unaffected by the quota.
  EXPECT_EQ(starved.funnel.well_defined_users,
            full.funnel.well_defined_users);
}

TEST(FailureInjectionTest, QuotaBindsWithTheCacheOffOnBothPipelines) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(0.05));
  twitter::GeneratedData data = generator.Generate();

  // Every lookup spends quota, so the default RegionId path and the XML
  // pipeline run out at the same tweet.
  StudyConfig config;
  config.geocoder.enable_cache = false;
  config.geocoder.quota = 200;
  core::StudyResult located = core::CorrelationStudy(&db, config)
                                  .Run(data.dataset);
  config.refinement.faithful_xml_pipeline = true;
  core::StudyResult faithful = core::CorrelationStudy(&db, config)
                                   .Run(data.dataset);
  EXPECT_GT(located.funnel.geocode_failures, 0);
  EXPECT_EQ(located.funnel.geocode_failures,
            faithful.funnel.geocode_failures);
  EXPECT_EQ(located.final_users, faithful.final_users);
}

TEST(FailureInjectionTest, StudyOnGpsFreeCorpusYieldsEmptySample) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  auto config = twitter::DatasetGenerator::KoreanConfig(0.02);
  config.geotagger_fraction = 0.0;  // nobody ever geotags
  twitter::DatasetGenerator generator(&db, config);
  twitter::GeneratedData data = generator.Generate();
  EXPECT_EQ(data.dataset.gps_tweet_count(), 0);
  core::CorrelationStudy study(&db);
  core::StudyResult result = study.Run(data.dataset);
  EXPECT_EQ(result.final_users, 0);
  EXPECT_GT(result.funnel.well_defined_users, 0);
}

TEST(FailureInjectionTest, ParserRejectsOverlongGarbageFast) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  text::LocationParser parser(&db);
  // Pathological input: very long token runs must not blow up the
  // phrase matcher (greedy scan is bounded by max phrase length).
  std::string long_input;
  for (int i = 0; i < 2000; ++i) long_input += "word ";
  text::ParsedLocation parsed = parser.Parse(long_input);
  EXPECT_EQ(parsed.quality, text::LocationQuality::kVague);
}

// End-to-end faulty run through the refinement pipeline with an external
// injector: every injected fault must be accounted for exactly — either
// retried past or terminal, with degradation a subset of the terminal
// ones — and the funnel's fault counters must agree with the geocoder's.
TEST(FailureInjectionTest, FunnelCountersSumExactlyToInjectedFaults) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(0.05));
  twitter::GeneratedData data = generator.Generate();

  common::FaultInjectorOptions fault_options;
  fault_options.error_rate = 0.2;
  fault_options.seed = 7;
  common::FaultInjector injector(fault_options);

  obs::MetricsRegistry metrics;
  geo::ReverseGeocoderOptions geocoder_options;
  geocoder_options.fault_injector = &injector;
  geocoder_options.retry.max_attempts = 2;
  geocoder_options.metrics = &metrics;
  geo::ReverseGeocoder geocoder(&db, geocoder_options);
  text::LocationParser parser(&db);
  core::RefinementPipeline pipeline(&parser, &geocoder, StudyConfig());

  auto corpus = io::CorpusView::FromDataset(data.dataset);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  core::FunnelStats funnel;
  std::vector<core::RefinedUser> refined = pipeline.Run(*corpus, &funnel);
  EXPECT_FALSE(refined.empty());
  EXPECT_TRUE(funnel.fault_injection_enabled);

  // The run actually exercised the fault layer.
  EXPECT_GT(injector.faults_injected(), 0);
  EXPECT_GT(funnel.geocode_faulted, 0);
  EXPECT_GT(funnel.geocode_retried, 0);

  // Exactness: every injected fault was either retried past or terminal.
  EXPECT_EQ(injector.faults_injected(),
            funnel.geocode_retried + funnel.geocode_faulted);
  // The funnel's fault counters are the geocoder's, verbatim.
  EXPECT_EQ(funnel.geocode_retried,
            metrics.GetCounter("geocode.retried")->value());
  EXPECT_EQ(funnel.geocode_faulted,
            metrics.GetCounter("geocode.faulted")->value());
  EXPECT_EQ(funnel.backoff_ms,
            metrics.GetCounter("geocode.backoff_ms")->value());
  // Degradation only ever salvages terminally-faulted lookups.
  EXPECT_LE(funnel.geocode_degraded, funnel.geocode_faulted);
}

std::string ReadWholeFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Checked-in corpus of malformed/truncated/garbled geocode responses:
// ParseResponse must return a Status for every one, never crash, and
// still parse the known-good document.
TEST(FuzzTest, GeocodeResponseCorpusAlwaysYieldsAStatus) {
  const std::filesystem::path dir =
      std::filesystem::path(STIR_TEST_DATA_DIR) / "geocode_responses";
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  int files = 0;
  int parsed_ok = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    SCOPED_TRACE(entry.path().filename().string());
    std::string content = ReadWholeFile(entry.path());
    auto result = geo::ReverseGeocoder::ParseResponse(content);
    if (result.ok()) {
      ++parsed_ok;
      EXPECT_FALSE(result->state.empty());
      EXPECT_FALSE(result->county.empty());
    }
  }
  EXPECT_GE(files, 10);
  // Almost all of the corpus is structurally broken and must be rejected
  // (the XML parser is lenient about unknown entities, so the garbled-
  // entity document legally parses with the entities passed through).
  EXPECT_GE(files - parsed_ok, 8);
  auto valid = geo::ReverseGeocoder::ParseResponse(
      ReadWholeFile(dir / "valid.xml"));
  ASSERT_TRUE(valid.ok());
  EXPECT_EQ(valid->state, "Seoul");
  EXPECT_EQ(valid->county, "Mapo-gu");
  EXPECT_EQ(valid->country, "South Korea");
}

// Property test: every truncation prefix and thousands of seeded random
// byte mutations of a valid response must come back as a Status — ok or
// error — without crashing (ASAN-checked in sanitizer runs).
TEST(FuzzTest, GeocodeResponseTruncationsAndMutationsNeverCrash) {
  const std::string valid = ReadWholeFile(
      std::filesystem::path(STIR_TEST_DATA_DIR) / "geocode_responses" /
      "valid.xml");
  ASSERT_TRUE(geo::ReverseGeocoder::ParseResponse(valid).ok());

  // Every prefix, byte by byte. Only prefixes that still contain the
  // whole document body (i.e. cut nothing but trailing whitespace) may
  // parse; anything shorter must be rejected.
  const size_t body_end = valid.rfind('>') + 1;
  for (size_t len = 0; len < valid.size(); ++len) {
    auto result = geo::ReverseGeocoder::ParseResponse(
        std::string_view(valid).substr(0, len));
    if (len < body_end) {
      EXPECT_FALSE(result.ok()) << "prefix length " << len;
    }
  }

  // Seeded random mutations: flip 1..8 bytes to arbitrary values.
  Rng rng(105);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = valid;
    int flips = static_cast<int>(rng.UniformInt(1, 8));
    for (int f = 0; f < flips; ++f) {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    auto result = geo::ReverseGeocoder::ParseResponse(mutated);
    if (result.ok()) {
      // A surviving parse must still satisfy the parser's contract.
      EXPECT_FALSE(result->state.empty());
      EXPECT_FALSE(result->county.empty());
    }
  }
}

}  // namespace
}  // namespace stir
