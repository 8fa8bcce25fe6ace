#include "geo/grid_index.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"

namespace stir::geo {
namespace {

TEST(GridIndexTest, EmptyIndex) {
  GridIndex index;
  EXPECT_TRUE(index.WithinRadius({0, 0}, 100.0).empty());
}

TEST(GridIndexTest, WithinRadiusMatchesBruteForce) {
  Rng rng(6);
  GridIndex index(0.5);
  std::vector<LatLng> points;
  for (int64_t i = 0; i < 400; ++i) {
    LatLng p{rng.Uniform(34.0, 38.0), rng.Uniform(126.0, 130.0)};
    points.push_back(p);
    index.Add(p, i);
  }
  for (double radius : {5.0, 30.0, 120.0}) {
    LatLng q{36.0, 128.0};
    std::vector<int64_t> got = index.WithinRadius(q, radius);
    std::sort(got.begin(), got.end());
    std::vector<int64_t> want;
    for (int64_t i = 0; i < static_cast<int64_t>(points.size()); ++i) {
      if (ApproxDistanceKm(q, points[static_cast<size_t>(i)]) <= radius) {
        want.push_back(i);
      }
    }
    EXPECT_EQ(got, want) << "radius " << radius;
  }
}

TEST(GridIndexTest, NegativeRadiusYieldsNothing) {
  GridIndex index;
  index.Add({0, 0}, 1);
  EXPECT_TRUE(index.WithinRadius({0, 0}, -1.0).empty());
}

TEST(GridIndexTest, DuplicatePositionsBothFound) {
  GridIndex index;
  index.Add({10, 10}, 1);
  index.Add({10, 10}, 2);
  auto hits = index.WithinRadius({10, 10}, 0.5);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<int64_t>{1, 2}));
}

}  // namespace
}  // namespace stir::geo
