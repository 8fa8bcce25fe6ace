#include "core/refinement.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/study_config.h"
#include "geo/geohash.h"
#include "io/corpus.h"
#include "twitter/dataset.h"

namespace stir::core {
namespace {

class RefinementTest : public ::testing::Test {
 protected:
  RefinementTest()
      : db_(geo::AdminDb::KoreanDistricts()),
        parser_(&db_),
        geocoder_(&db_) {}

  twitter::User MakeUser(twitter::UserId id, const std::string& location,
                         int64_t total = 10) {
    twitter::User user;
    user.id = id;
    user.handle = StrFormat("u%lld", static_cast<long long>(id));
    user.profile_location = location;
    user.total_tweets = total;
    return user;
  }

  twitter::Tweet GpsTweet(twitter::TweetId id, twitter::UserId user,
                          const geo::LatLng& gps) {
    twitter::Tweet tweet;
    tweet.id = id;
    tweet.user = user;
    tweet.time = id;
    tweet.gps = gps;
    tweet.text = "t";
    return tweet;
  }

  /// The pipeline reads arena corpora; the fixture datasets are encoded
  /// into in-memory images.
  static io::CorpusView View(const twitter::Dataset& dataset) {
    auto view = io::CorpusView::FromDataset(dataset);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    return std::move(*view);
  }

  const geo::AdminDb& db_;
  text::LocationParser parser_;
  geo::ReverseGeocoder geocoder_;
  StudyConfig config_;
};

TEST_F(RefinementTest, FunnelCountsEveryQualityClass) {
  twitter::Dataset dataset;
  dataset.AddUser(MakeUser(1, "Seoul Mapo-gu"));        // well-defined
  dataset.AddUser(MakeUser(2, ""));                     // empty
  dataset.AddUser(MakeUser(3, "Earth"));                // vague
  dataset.AddUser(MakeUser(4, "Korea"));                // insufficient
  dataset.AddUser(MakeUser(5, "Jung-gu"));              // ambiguous
  dataset.AddUser(MakeUser(6, "Busan Haeundae-gu"));    // well-defined
  dataset.AddTweet(GpsTweet(1, 1, {37.5663, 126.9019}));  // Mapo-gu
  // User 6 has no GPS tweets -> drops at the second gate.

  FunnelStats funnel;
  RefinementPipeline pipeline(&parser_, &geocoder_, config_);
  std::vector<RefinedUser> refined = pipeline.Run(View(dataset), &funnel);

  EXPECT_EQ(funnel.crawled_users, 6);
  EXPECT_EQ(funnel.quality_counts[static_cast<int>(
                text::LocationQuality::kEmpty)],
            1);
  EXPECT_EQ(funnel.quality_counts[static_cast<int>(
                text::LocationQuality::kVague)],
            1);
  EXPECT_EQ(funnel.quality_counts[static_cast<int>(
                text::LocationQuality::kInsufficient)],
            1);
  EXPECT_EQ(funnel.quality_counts[static_cast<int>(
                text::LocationQuality::kAmbiguous)],
            1);
  EXPECT_EQ(funnel.well_defined_users, 2);
  EXPECT_EQ(funnel.final_users, 1);
  ASSERT_EQ(refined.size(), 1u);
  EXPECT_EQ(refined[0].user, 1);
  EXPECT_EQ(db_.region(refined[0].profile_region).county, "Mapo-gu");
  ASSERT_EQ(refined[0].tweet_regions.size(), 1u);
  EXPECT_EQ(db_.region(refined[0].tweet_regions[0]).county, "Mapo-gu");
}

TEST_F(RefinementTest, GeocodeFailuresCountedNotFatal) {
  twitter::Dataset dataset;
  dataset.AddUser(MakeUser(1, "Seoul Mapo-gu"));
  dataset.AddTweet(GpsTweet(1, 1, {37.5663, 126.9019}));  // fine
  dataset.AddTweet(GpsTweet(2, 1, {20.0, -150.0}));       // mid-Pacific

  FunnelStats funnel;
  RefinementPipeline pipeline(&parser_, &geocoder_, config_);
  std::vector<RefinedUser> refined = pipeline.Run(View(dataset), &funnel);
  EXPECT_EQ(funnel.geocode_failures, 1);
  ASSERT_EQ(refined.size(), 1u);
  EXPECT_EQ(refined[0].tweet_regions.size(), 1u);
}

TEST_F(RefinementTest, UserWithOnlyUnGeocodableTweetsDrops) {
  twitter::Dataset dataset;
  dataset.AddUser(MakeUser(1, "Seoul Mapo-gu"));
  dataset.AddTweet(GpsTweet(1, 1, {20.0, -150.0}));
  FunnelStats funnel;
  RefinementPipeline pipeline(&parser_, &geocoder_, config_);
  EXPECT_TRUE(pipeline.Run(View(dataset), &funnel).empty());
  EXPECT_EQ(funnel.well_defined_users, 1);
  EXPECT_EQ(funnel.final_users, 0);
}

TEST_F(RefinementTest, FaithfulXmlPipelineMatchesStructuredPath) {
  twitter::Dataset dataset;
  dataset.AddUser(MakeUser(1, "Gyeonggi-do Uiwang-si"));
  Rng rng(4);
  auto uiwang = db_.FindCounty("Gyeonggi-do", "Uiwang-si");
  ASSERT_TRUE(uiwang.ok());
  for (twitter::TweetId t = 0; t < 10; ++t) {
    dataset.AddTweet(GpsTweet(t, 1, db_.SamplePointIn(*uiwang, rng)));
  }

  StudyConfig faithful;
  faithful.refinement.faithful_xml_pipeline = true;
  geo::ReverseGeocoder geocoder_a(&db_), geocoder_b(&db_);
  RefinementPipeline structured(&parser_, &geocoder_a, config_);
  RefinementPipeline xml(&parser_, &geocoder_b, faithful);

  FunnelStats fa, fb;
  auto a = structured.Run(View(dataset), &fa);
  auto b = xml.Run(View(dataset), &fb);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].tweet_regions, b[0].tweet_regions);
  EXPECT_EQ(fa.final_users, fb.final_users);
}

TEST_F(RefinementTest, NullFunnelPointerAccepted) {
  twitter::Dataset dataset;
  dataset.AddUser(MakeUser(1, "Seoul Mapo-gu"));
  dataset.AddTweet(GpsTweet(1, 1, {37.5663, 126.9019}));
  RefinementPipeline pipeline(&parser_, &geocoder_, config_);
  EXPECT_EQ(pipeline.Run(View(dataset), nullptr).size(), 1u);
}

TEST_F(RefinementTest, TotalTweetsPreservedOnRefinedUsers) {
  twitter::Dataset dataset;
  dataset.AddUser(MakeUser(1, "Seoul Mapo-gu", 1234));
  dataset.AddTweet(GpsTweet(1, 1, {37.5663, 126.9019}));
  RefinementPipeline pipeline(&parser_, &geocoder_, config_);
  auto refined = pipeline.Run(View(dataset), nullptr);
  ASSERT_EQ(refined.size(), 1u);
  EXPECT_EQ(refined[0].total_tweets, 1234);
}

TEST_F(RefinementTest, GeocodeGivesEachPointItsOwnDistrictInAnyOrder) {
  // Two fixes 0.5 m apart in one geohash-7 cell ("wydm9xn"), on either
  // side of the Jongno-gu / Jung-gu border.
  const geo::LatLng jongno{37.568550, 126.988650};
  const geo::LatLng jung{37.568548, 126.988655};
  auto jongno_id = db_.FindCounty("Seoul", "Jongno-gu");
  auto jung_id = db_.FindCounty("Seoul", "Jung-gu");
  ASSERT_TRUE(jongno_id.ok());
  ASSERT_TRUE(jung_id.ok());
  ASSERT_EQ(geo::GeohashEncode(jongno, 7), geo::GeohashEncode(jung, 7));
  for (bool jongno_first : {true, false}) {
    SCOPED_TRACE(jongno_first ? "Jongno-gu first" : "Jung-gu first");
    geo::ReverseGeocoder geocoder(&db_);
    RefinementPipeline pipeline(&parser_, &geocoder, config_);
    auto fold = [&](const geo::LatLng& gps, int64_t key) {
      return pipeline.FoldTweet(gps, "t", key, geo::kInvalidRegion).region;
    };
    if (jongno_first) {
      EXPECT_EQ(fold(jongno, 0), *jongno_id);
      EXPECT_EQ(fold(jung, 1), *jung_id);
    } else {
      EXPECT_EQ(fold(jung, 0), *jung_id);
      EXPECT_EQ(fold(jongno, 1), *jongno_id);
    }
  }
}

}  // namespace
}  // namespace stir::core
