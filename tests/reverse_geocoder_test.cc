#include "geo/reverse_geocoder.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "obs/metrics.h"

namespace stir::geo {
namespace {

/// A geocoder's `geocode.<name>` counter in its attached registry.
int64_t Count(obs::MetricsRegistry& metrics, std::string_view name) {
  return metrics.GetCounter("geocode." + std::string(name))->value();
}

TEST(ReverseGeocoderTest, StructuredLookup) {
  ReverseGeocoder geocoder(&AdminDb::KoreanDistricts());
  auto result = geocoder.Reverse({37.5170, 126.8666});  // Yangcheon-gu
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->country, "South Korea");
  EXPECT_EQ(result->state, "Seoul");
  EXPECT_EQ(result->county, "Yangcheon-gu");
  EXPECT_FALSE(result->town.empty());
  EXPECT_GE(result->region, 0);
}

TEST(ReverseGeocoderTest, InvalidAndOceanPoints) {
  ReverseGeocoder geocoder(&AdminDb::KoreanDistricts());
  EXPECT_TRUE(geocoder.Reverse({999, 0}).status().IsInvalidArgument());
  EXPECT_TRUE(geocoder.Reverse({20.0, -150.0}).status().IsNotFound());
}

TEST(ReverseGeocoderTest, XmlResponseShapeMatchesPaperFig5) {
  ReverseGeocoder geocoder(&AdminDb::KoreanDistricts());
  auto xml = geocoder.ReverseToXml({37.2636, 127.0286});  // Suwon
  ASSERT_TRUE(xml.ok());
  // The four elements under <location> the paper extracts.
  EXPECT_NE(xml->find("<ResultSet"), std::string::npos);
  EXPECT_NE(xml->find("<country>"), std::string::npos);
  EXPECT_NE(xml->find("<state>"), std::string::npos);
  EXPECT_NE(xml->find("<county>"), std::string::npos);
  EXPECT_NE(xml->find("<town>"), std::string::npos);

  auto parsed = ReverseGeocoder::ParseResponse(*xml);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->state, "Gyeonggi-do");
  EXPECT_EQ(parsed->county, "Suwon-si");
}

TEST(ReverseGeocoderTest, ParseResponseRejectsMalformed) {
  EXPECT_FALSE(ReverseGeocoder::ParseResponse("<wrong/>").ok());
  EXPECT_FALSE(ReverseGeocoder::ParseResponse("<ResultSet/>").ok());
  EXPECT_FALSE(ReverseGeocoder::ParseResponse(
                   "<ResultSet><Result><location><state>Seoul</state>"
                   "</location></Result></ResultSet>")
                   .ok());  // county missing
  EXPECT_FALSE(ReverseGeocoder::ParseResponse("not xml at all").ok());
}

TEST(ReverseGeocoderTest, LocateSkipsTheMemoUnlessQuotaCanObserveIt) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  const LatLng yangcheon{37.5170, 126.8666};
  obs::MetricsRegistry plain_metrics;
  ReverseGeocoderOptions plain_options;
  plain_options.metrics = &plain_metrics;
  ReverseGeocoder plain(&db, plain_options);
  auto region = plain.Locate(yangcheon);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(*region, plain.Reverse(yangcheon)->region);
  EXPECT_EQ(*plain.Locate(yangcheon), *region);
  EXPECT_EQ(Count(plain_metrics, "queries"), 3);
  EXPECT_EQ(Count(plain_metrics, "cache_hits"), 0);  // Locate skips the memo.
  EXPECT_TRUE(plain.Locate({999, 0}).status().IsInvalidArgument());
  EXPECT_TRUE(plain.Locate({20.0, -150.0}).status().IsNotFound());

  // A finite quota sees every miss, so Locate goes through the memo.
  obs::MetricsRegistry metered_metrics;
  ReverseGeocoderOptions options;
  options.quota = 5;
  options.metrics = &metered_metrics;
  ReverseGeocoder metered(&db, options);
  EXPECT_EQ(*metered.Locate(yangcheon), *region);
  EXPECT_EQ(*metered.Locate(yangcheon), *region);
  EXPECT_EQ(Count(metered_metrics, "cache_hits"), 1);
  EXPECT_EQ(metered.quota_remaining(), 4);
}

TEST(ReverseGeocoderTest, CacheHitsAccumulate) {
  obs::MetricsRegistry metrics;
  ReverseGeocoderOptions options;
  options.metrics = &metrics;
  ReverseGeocoder geocoder(&AdminDb::KoreanDistricts(), options);
  LatLng p{35.8714, 128.6014};  // Daegu Jung-gu
  ASSERT_TRUE(geocoder.Reverse(p).ok());
  ASSERT_TRUE(geocoder.Reverse(p).ok());
  ASSERT_TRUE(geocoder.Reverse(p).ok());
  EXPECT_EQ(Count(metrics, "queries"), 3);
  EXPECT_EQ(Count(metrics, "cache_hits"), 2);
}

TEST(ReverseGeocoderTest, QuotaExhaustion) {
  ReverseGeocoderOptions options;
  options.quota = 2;
  options.enable_cache = false;
  ReverseGeocoder geocoder(&AdminDb::KoreanDistricts(), options);
  EXPECT_TRUE(geocoder.Reverse({37.50, 127.03}).ok());
  EXPECT_TRUE(geocoder.Reverse({35.18, 129.07}).ok());
  EXPECT_TRUE(
      geocoder.Reverse({36.35, 127.38}).status().IsResourceExhausted());
  geocoder.ResetQuota();
  EXPECT_TRUE(geocoder.Reverse({36.35, 127.38}).ok());
}

TEST(ReverseGeocoderTest, LocateSpendsTheQuotaWithTheCacheOff) {
  obs::MetricsRegistry metrics;
  ReverseGeocoderOptions options;
  options.quota = 2;
  options.enable_cache = false;
  options.metrics = &metrics;
  ReverseGeocoder geocoder(&AdminDb::KoreanDistricts(), options);
  EXPECT_TRUE(geocoder.Locate({37.50, 127.03}).ok());
  EXPECT_TRUE(geocoder.Locate({35.18, 129.07}).ok());
  EXPECT_TRUE(
      geocoder.Locate({36.35, 127.38}).status().IsResourceExhausted());
  EXPECT_EQ(geocoder.quota_remaining(), 0);
  geocoder.ResetQuota();
  EXPECT_TRUE(geocoder.Locate({36.35, 127.38}).ok());
  EXPECT_EQ(Count(metrics, "cache_hits"), 0);
}

TEST(ReverseGeocoderTest, CachedResultsDontSpendQuota) {
  ReverseGeocoderOptions options;
  options.quota = 1;
  ReverseGeocoder geocoder(&AdminDb::KoreanDistricts(), options);
  LatLng p{37.57, 126.98};
  ASSERT_TRUE(geocoder.Reverse(p).ok());
  // Same cell again: served from cache even though quota is spent.
  EXPECT_TRUE(geocoder.Reverse(p).ok());
  EXPECT_EQ(geocoder.quota_remaining(), 0);
}

TEST(ReverseGeocoderTest, XmlRoundTripAgreesWithStructuredPath) {
  ReverseGeocoder geocoder(&AdminDb::KoreanDistricts());
  Rng rng(3);
  const AdminDb& db = AdminDb::KoreanDistricts();
  for (int i = 0; i < 40; ++i) {
    auto id = static_cast<RegionId>(
        rng.UniformInt(0, static_cast<int64_t>(db.size()) - 1));
    LatLng p = db.SamplePointIn(id, rng);
    auto direct = geocoder.Reverse(p);
    ASSERT_TRUE(direct.ok());
    auto xml = geocoder.ReverseToXml(p);
    ASSERT_TRUE(xml.ok());
    auto parsed = ReverseGeocoder::ParseResponse(*xml);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->state, direct->state);
    EXPECT_EQ(parsed->county, direct->county);
    EXPECT_EQ(parsed->town, direct->town);
  }
}

}  // namespace
}  // namespace stir::geo
