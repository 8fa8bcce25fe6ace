#include "event/event_sim.h"

#include <gtest/gtest.h>

#include "twitter/generator.h"

namespace stir::event {
namespace {

class EventSimTest : public ::testing::Test {
 protected:
  EventSimTest() : db_(geo::AdminDb::KoreanDistricts()) {
    twitter::DatasetGenerator generator(
        &db_, twitter::DatasetGenerator::KoreanConfig(0.05));
    data_ = generator.Generate();
  }

  EventSpec SeoulQuake() {
    EventSpec spec;
    spec.epicenter = {37.55, 127.00};
    spec.start_time = 1000;
    spec.felt_radius_km = 120.0;
    spec.response_rate = 0.4;
    return spec;
  }

  const geo::AdminDb& db_;
  twitter::GeneratedData data_;
};

TEST_F(EventSimTest, ReportsTimeOrderedAndAfterOnset) {
  EventSimulator simulator(&db_, &data_.truth);
  Rng rng(1);
  auto reports = simulator.Simulate(SeoulQuake(), data_.dataset.users(), rng);
  ASSERT_GT(reports.size(), 20u);
  for (size_t i = 0; i < reports.size(); ++i) {
    EXPECT_GE(reports[i].time, 1000);
    if (i > 0) {
      EXPECT_GE(reports[i].time, reports[i - 1].time);
    }
  }
}

TEST_F(EventSimTest, WitnessesAreWithinFeltRadius) {
  EventSimulator simulator(&db_, &data_.truth);
  Rng rng(2);
  EventSpec spec = SeoulQuake();
  auto reports = simulator.Simulate(spec, data_.dataset.users(), rng);
  for (const WitnessReport& report : reports) {
    ASSERT_GE(report.true_region, 0);
    double d = geo::HaversineKm(db_.region(report.true_region).centroid,
                                spec.epicenter);
    EXPECT_LE(d, spec.felt_radius_km + 30.0);  // centroid vs actual point
    if (report.gps.has_value()) {
      EXPECT_LE(geo::HaversineKm(*report.gps, spec.epicenter),
                spec.felt_radius_km + 1.0);
    }
  }
}

TEST_F(EventSimTest, ReportTextCarriesKeyword) {
  EventSimulator simulator(&db_, &data_.truth);
  Rng rng(3);
  EventSpec spec = SeoulQuake();
  auto reports = simulator.Simulate(spec, data_.dataset.users(), rng);
  for (const WitnessReport& report : reports) {
    bool has_keyword = false;
    for (const std::string& keyword : spec.keywords) {
      has_keyword |= report.text.find(keyword) != std::string::npos;
    }
    EXPECT_TRUE(has_keyword) << report.text;
  }
}

TEST_F(EventSimTest, RemoteEventYieldsNoReports) {
  EventSimulator simulator(&db_, &data_.truth);
  Rng rng(4);
  EventSpec remote;
  remote.epicenter = {10.0, 100.0};  // far outside Korea
  remote.felt_radius_km = 100.0;
  auto reports = simulator.Simulate(remote, data_.dataset.users(), rng);
  EXPECT_TRUE(reports.empty());
}

TEST_F(EventSimTest, CloserEventsDrawMoreReports) {
  EventSimulator simulator(&db_, &data_.truth);
  Rng rng_a(5), rng_b(5);
  EventSpec seoul = SeoulQuake();  // population-dense
  EventSpec sea;                   // off the east coast, fewer people
  sea.epicenter = {37.8, 130.2};
  sea.start_time = 1000;
  sea.felt_radius_km = 120.0;
  sea.response_rate = 0.4;
  auto seoul_reports =
      simulator.Simulate(seoul, data_.dataset.users(), rng_a);
  auto sea_reports = simulator.Simulate(sea, data_.dataset.users(), rng_b);
  EXPECT_GT(seoul_reports.size(), sea_reports.size() * 3);
}

TEST_F(EventSimTest, GeotagBoostIncreasesGpsShare) {
  EventSimulator plain(&db_, &data_.truth, /*event_geotag_boost=*/1.0);
  EventSimulator boosted(&db_, &data_.truth, /*event_geotag_boost=*/8.0);
  Rng rng_a(6), rng_b(6);
  EventSpec spec = SeoulQuake();
  auto count_gps = [](const std::vector<WitnessReport>& reports) {
    int64_t n = 0;
    for (const auto& r : reports) n += r.gps.has_value();
    return n;
  };
  auto a = plain.Simulate(spec, data_.dataset.users(), rng_a);
  auto b = boosted.Simulate(spec, data_.dataset.users(), rng_b);
  double share_a = a.empty() ? 0.0
                             : static_cast<double>(count_gps(a)) /
                                   static_cast<double>(a.size());
  double share_b = b.empty() ? 0.0
                             : static_cast<double>(count_gps(b)) /
                                   static_cast<double>(b.size());
  EXPECT_GT(share_b, share_a);
}

}  // namespace
}  // namespace stir::event
