#include "event/trajectory.h"

#include <gtest/gtest.h>

#include "twitter/generator.h"

namespace stir::event {
namespace {

TEST(TrajectoryKalmanTest, FirstFixInitializes) {
  TrajectoryKalman filter;
  EXPECT_FALSE(filter.initialized());
  filter.Update(100, {35.0, 128.0}, 0.01);
  EXPECT_TRUE(filter.initialized());
  EXPECT_NEAR(filter.position().lat, 35.0, 1e-12);
  EXPECT_DOUBLE_EQ(filter.velocity_lat(), 0.0);
}

TEST(TrajectoryKalmanTest, RecoversConstantVelocity) {
  // Target moves north-east at a fixed rate; noiseless fixes.
  TrajectoryKalman::Options options;
  options.velocity_process_noise = 1e-12;
  TrajectoryKalman filter(options);
  const double vlat = 1e-5, vlng = 2e-5;  // deg/s
  for (int i = 0; i <= 50; ++i) {
    SimTime t = i * 600;
    filter.Update(t, {30.0 + vlat * t, 120.0 + vlng * t}, 1e-6);
  }
  EXPECT_NEAR(filter.velocity_lat(), vlat, vlat * 0.05);
  EXPECT_NEAR(filter.velocity_lng(), vlng, vlng * 0.05);
  // Forecast an hour ahead lands near the true future position.
  SimTime future = 50 * 600 + 3600;
  geo::LatLng forecast = filter.Forecast(future);
  EXPECT_NEAR(forecast.lat, 30.0 + vlat * future, 0.01);
  EXPECT_NEAR(forecast.lng, 120.0 + vlng * future, 0.02);
}

TEST(TrajectoryKalmanTest, SmoothsNoisyTrack) {
  Rng rng(1);
  // Tight process noise: the simulated target really is constant-velocity.
  TrajectoryKalman::Options options;
  options.velocity_process_noise = 1e-13;
  TrajectoryKalman filter(options);
  const double vlat = 2e-5;
  double raw_error = 0.0, filtered_error = 0.0;
  int scored = 0;
  for (int i = 0; i <= 200; ++i) {
    SimTime t = i * 300;
    geo::LatLng truth{25.0 + vlat * t, 130.0};
    geo::LatLng fix{truth.lat + rng.Normal(0, 0.2),
                    truth.lng + rng.Normal(0, 0.2)};
    filter.Update(t, fix, 0.04);
    if (i >= 20) {  // after warm-up
      raw_error += geo::HaversineKm(fix, truth);
      filtered_error += geo::HaversineKm(filter.position(), truth);
      ++scored;
    }
  }
  EXPECT_LT(filtered_error, raw_error * 0.5)
      << "filtered " << filtered_error / scored << " km vs raw "
      << raw_error / scored << " km";
}

TEST(TrajectoryKalmanTest, OutOfOrderFixAborts) {
  TrajectoryKalman filter;
  filter.Update(100, {0, 0}, 1.0);
  EXPECT_DEATH(filter.Update(50, {0, 0}, 1.0), "time-ordered");
}

TEST(MovingEventTest, PositionAdvancesAlongBearing) {
  MovingEventSpec spec;
  spec.start = {33.0, 127.0};
  spec.bearing_deg = 0.0;  // due north
  spec.speed_kmh = 30.0;
  spec.start_time = 0;
  spec.duration_seconds = 10 * kSecondsPerHour;
  geo::LatLng mid = MovingEventPosition(spec, 5 * kSecondsPerHour);
  geo::LatLng end = MovingEventPosition(spec, 10 * kSecondsPerHour);
  EXPECT_GT(mid.lat, spec.start.lat);
  EXPECT_GT(end.lat, mid.lat);
  EXPECT_NEAR(geo::HaversineKm(spec.start, end), 300.0, 3.0);
  // Clamped outside the window.
  EXPECT_EQ(MovingEventPosition(spec, -100).lat, spec.start.lat);
  geo::LatLng past_end = MovingEventPosition(spec, 99 * kSecondsPerHour);
  EXPECT_NEAR(past_end.lat, end.lat, 1e-12);
}

class MovingEventSimTest : public ::testing::Test {
 protected:
  MovingEventSimTest() : db_(geo::AdminDb::KoreanDistricts()) {
    twitter::DatasetGenerator generator(
        &db_, twitter::DatasetGenerator::KoreanConfig(0.05));
    data_ = generator.Generate();
  }
  const geo::AdminDb& db_;
  twitter::GeneratedData data_;
};

TEST_F(MovingEventSimTest, ReportsFollowTheTrack) {
  // A typhoon crossing Korea south-to-north along the west side.
  MovingEventSpec spec;
  spec.start = {34.5, 126.5};
  spec.bearing_deg = 30.0;
  spec.speed_kmh = 35.0;
  spec.start_time = 0;
  spec.duration_seconds = 12 * kSecondsPerHour;
  spec.response_rate = 0.08;
  MovingEventSimulator simulator(&db_, &data_.truth);
  Rng rng(2);
  auto reports = simulator.Simulate(spec, data_.dataset.users(), rng);
  ASSERT_GT(reports.size(), 50u);
  // Time-ordered, and each witness near the eye at report time.
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(reports[i].time, reports[i - 1].time);
    }
    geo::LatLng eye = MovingEventPosition(spec, reports[i].time);
    double d = geo::HaversineKm(db_.region(reports[i].true_region).centroid,
                                eye);
    EXPECT_LE(d, spec.felt_radius_km + spec.speed_kmh + 30.0);
  }
  // Early reports skew south-west of late reports.
  double early_lat = 0, late_lat = 0;
  size_t quarter = reports.size() / 4;
  for (size_t i = 0; i < quarter; ++i) {
    early_lat += db_.region(reports[i].true_region).centroid.lat;
    late_lat +=
        db_.region(reports[reports.size() - 1 - i].true_region).centroid.lat;
  }
  EXPECT_LT(early_lat / quarter, late_lat / quarter);
}

TEST_F(MovingEventSimTest, EvaluateTrackBeatsNothingAndFailsWithoutGps) {
  MovingEventSpec spec;
  spec.start = {34.5, 126.5};
  spec.bearing_deg = 30.0;
  spec.speed_kmh = 35.0;
  spec.duration_seconds = 24 * kSecondsPerHour;
  spec.response_rate = 0.25;
  MovingEventSimulator simulator(&db_, &data_.truth,
                                 /*event_geotag_boost=*/12.0);
  Rng rng(3);
  auto reports = simulator.Simulate(spec, data_.dataset.users(), rng);
  auto error = EvaluateTrack(spec, reports, /*measurement_sigma_km=*/40.0);
  ASSERT_TRUE(error.ok());
  EXPECT_GT(error->points, 5);
  EXPECT_LT(error->mean_km, 120.0);  // tracks the eye to within felt range

  // Without any GPS fixes the evaluation cannot run.
  std::vector<WitnessReport> no_gps = reports;
  for (auto& report : no_gps) report.gps.reset();
  EXPECT_TRUE(EvaluateTrack(spec, no_gps, 40.0)
                  .status()
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace stir::event
