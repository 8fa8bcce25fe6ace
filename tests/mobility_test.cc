#include "twitter/mobility.h"

#include <gtest/gtest.h>

#include <map>

namespace stir::twitter {
namespace {

class MobilityTest : public ::testing::Test {
 protected:
  MobilityTest()
      : db_(geo::AdminDb::KoreanDistricts()),
        model_(&db_, MobilityModelOptions{}) {}
  const geo::AdminDb& db_;
  MobilityModel model_;
};

TEST_F(MobilityTest, ProfileInvariants) {
  Rng rng(1);
  for (UserId u = 0; u < 300; ++u) {
    MobilityProfile p = model_.GenerateProfile(u, /*is_geotagger=*/true, rng);
    EXPECT_EQ(p.user, u);
    ASSERT_FALSE(p.spots.empty());
    double total = 0.0;
    for (size_t i = 0; i < p.spots.size(); ++i) {
      EXPECT_GE(p.spots[i].region, 0);
      EXPECT_LT(static_cast<size_t>(p.spots[i].region), db_.size());
      EXPECT_GT(p.spots[i].weight, 0.0);
      if (i > 0) {
        EXPECT_LE(p.spots[i].weight, p.spots[i - 1].weight);
      }
      total += p.spots[i].weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_GT(p.geotag_rate, 0.0);
  }
}

TEST_F(MobilityTest, NonGeotaggersNeverGeotag) {
  Rng rng(2);
  MobilityProfile p = model_.GenerateProfile(1, /*is_geotagger=*/false, rng);
  EXPECT_EQ(p.geotag_rate, 0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(model_.SampleGeotag(p, p.spots.front().region, rng));
  }
}

TEST_F(MobilityTest, RelocatedClaimFarFromHomeAndNotASpot) {
  Rng rng(3);
  int found = 0;
  for (UserId u = 0; u < 2000 && found < 50; ++u) {
    MobilityProfile p = model_.GenerateProfile(u, true, rng);
    if (p.archetype != Archetype::kRelocated) continue;
    ++found;
    EXPECT_NE(p.claimed, p.home);
    double d = geo::ApproxDistanceKm(db_.region(p.claimed).centroid,
                                     db_.region(p.home).centroid);
    EXPECT_GE(d, model_.options().relocation_min_km * 0.99);
    for (const ActivitySpot& spot : p.spots) {
      EXPECT_NE(spot.region, p.claimed);
    }
  }
  EXPECT_GE(found, 50);
}

TEST_F(MobilityTest, NonRelocatedClaimHome) {
  Rng rng(4);
  for (UserId u = 0; u < 500; ++u) {
    MobilityProfile p = model_.GenerateProfile(u, true, rng);
    if (p.archetype != Archetype::kRelocated) {
      EXPECT_EQ(p.claimed, p.home) << ArchetypeToString(p.archetype);
    }
  }
}

TEST_F(MobilityTest, HomebodyHomeIsTopSpot) {
  Rng rng(5);
  for (UserId u = 0; u < 1000; ++u) {
    MobilityProfile p = model_.GenerateProfile(u, true, rng);
    if (p.archetype == Archetype::kHomebody) {
      EXPECT_EQ(p.spots.front().region, p.home);
      EXPECT_GE(p.spots.front().weight, 0.5);
    }
  }
}

TEST_F(MobilityTest, CommuterHomeIsSecondSpot) {
  Rng rng(6);
  int checked = 0;
  for (UserId u = 0; u < 1500 && checked < 40; ++u) {
    MobilityProfile p = model_.GenerateProfile(u, true, rng);
    if (p.archetype != Archetype::kCommuter) continue;
    ++checked;
    ASSERT_GE(p.spots.size(), 2u);
    EXPECT_NE(p.spots.front().region, p.home);
    EXPECT_EQ(p.spots[1].region, p.home);
  }
  EXPECT_GE(checked, 40);
}

TEST_F(MobilityTest, SelectiveNeverGeotagsAtHome) {
  Rng rng(7);
  int checked = 0;
  for (UserId u = 0; u < 3000 && checked < 30; ++u) {
    MobilityProfile p = model_.GenerateProfile(u, true, rng);
    if (p.archetype != Archetype::kGeotagSelective) continue;
    ++checked;
    EXPECT_TRUE(p.geotag_away_only);
    for (int i = 0; i < 50; ++i) {
      EXPECT_FALSE(model_.SampleGeotag(p, p.home, rng));
    }
  }
  EXPECT_GE(checked, 30);
}

TEST_F(MobilityTest, SampleTweetRegionFollowsWeights) {
  Rng rng(8);
  MobilityProfile p;
  p.user = 1;
  p.home = 0;
  p.spots = {{0, 0.7}, {1, 0.2}, {2, 0.1}};
  std::map<geo::RegionId, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[model_.SampleTweetRegion(p, rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.7, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.1, 0.02);
}

TEST_F(MobilityTest, ArchetypeMixMatchesConfiguration) {
  MobilityModelOptions options;
  const MobilityModel model(&db_, options);
  Rng rng(9);
  std::map<Archetype, int> counts;
  const int n = 20000;
  for (UserId u = 0; u < n; ++u) {
    ++counts[model.GenerateProfile(u, true, rng).archetype];
  }
  EXPECT_NEAR(counts[Archetype::kHomebody] / static_cast<double>(n),
              options.frac_homebody, 0.02);
  EXPECT_NEAR(counts[Archetype::kRelocated] / static_cast<double>(n),
              options.frac_relocated, 0.02);
  EXPECT_NEAR(counts[Archetype::kGeotagSelective] / static_cast<double>(n),
              options.frac_selective, 0.02);
}

TEST_F(MobilityTest, ActivitySpotsAreLocal) {
  Rng rng(10);
  for (UserId u = 0; u < 200; ++u) {
    MobilityProfile p = model_.GenerateProfile(u, true, rng);
    if (p.archetype == Archetype::kRelocated) continue;
    const geo::LatLng home = db_.region(p.home).centroid;
    for (const ActivitySpot& spot : p.spots) {
      double d = geo::ApproxDistanceKm(home, db_.region(spot.region).centroid);
      EXPECT_LE(d, model_.options().activity_radius_km + 1.0)
          << ArchetypeToString(p.archetype);
    }
  }
}

TEST_F(MobilityTest, WorldGazetteerAlsoWorks) {
  const geo::AdminDb& world = geo::AdminDb::WorldCities();
  MobilityModelOptions options;
  options.activity_radius_km = 2500.0;
  options.distance_decay_km = 600.0;
  MobilityModel model(&world, options);
  Rng rng(11);
  for (UserId u = 0; u < 100; ++u) {
    MobilityProfile p = model.GenerateProfile(u, true, rng);
    EXPECT_FALSE(p.spots.empty());
  }
}

}  // namespace
}  // namespace stir::twitter
