#include "geo/admin_db.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "twitter/generator.h"

namespace stir::geo {
namespace {

TEST(AdminDbTest, KoreanGazetteerShape) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  EXPECT_EQ(db.states().size(), 17u);  // 17 first-level si/do
  EXPECT_GE(db.size(), 150u);
  EXPECT_EQ(db.CountiesInState("Seoul").size(), 25u);   // 25 gu
  EXPECT_EQ(db.CountiesInState("Busan").size(), 16u);
  EXPECT_EQ(db.CountiesInState("Gyeonggi-do").size(), 31u);
}

TEST(AdminDbTest, FindCountyExactAndCaseInsensitive) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  auto id = db.FindCounty("Seoul", "Yangcheon-gu");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(db.region(*id).FullName(), "Seoul Yangcheon-gu");
  EXPECT_TRUE(db.FindCounty("sEOUL", "yangcheon-GU").ok());
  EXPECT_TRUE(db.FindCounty("Seoul", "Nosuchplace-gu").status().IsNotFound());
  EXPECT_TRUE(db.FindCounty("Atlantis", "Jung-gu").status().IsNotFound());
}

TEST(AdminDbTest, AliasResolvesToCanonicalRegion) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  // The paper's own spelling of the district.
  auto via_alias = db.FindCounty("Seoul", "Yangchun-gu");
  auto canonical = db.FindCounty("Seoul", "Yangcheon-gu");
  ASSERT_TRUE(via_alias.ok());
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(*via_alias, *canonical);
}

TEST(AdminDbTest, FindCountyAnyStateAmbiguity) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  // "Jung-gu" exists in Seoul, Busan, Daegu, Incheon, Daejeon, Ulsan.
  EXPECT_TRUE(db.FindCountyAnyState("Jung-gu").status().IsAlreadyExists());
  // "Uiwang-si" is unique.
  auto unique = db.FindCountyAnyState("Uiwang-si");
  ASSERT_TRUE(unique.ok());
  EXPECT_EQ(db.region(*unique).state, "Gyeonggi-do");
  EXPECT_TRUE(db.FindCountyAnyState("Gotham").status().IsNotFound());
}

TEST(AdminDbTest, RegionIdsAreDenseAndSelfConsistent) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  for (size_t i = 0; i < db.size(); ++i) {
    const Region& region = db.region(static_cast<RegionId>(i));
    EXPECT_EQ(region.id, static_cast<RegionId>(i));
    EXPECT_TRUE(region.centroid.IsValid());
    EXPECT_GT(region.radius_km, 0.0);
    EXPECT_GT(region.safe_radius_km, 0.0);
    EXPECT_LE(region.safe_radius_km, region.radius_km + 1e-9);
    EXPECT_FALSE(region.state.empty());
    EXPECT_FALSE(region.county.empty());
  }
}

TEST(AdminDbTest, LocateCentroidReturnsOwnRegion) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  for (size_t i = 0; i < db.size(); ++i) {
    auto id = static_cast<RegionId>(i);
    auto located = db.Locate(db.region(id).centroid);
    ASSERT_TRUE(located.ok()) << db.region(id).FullName();
    EXPECT_EQ(*located, id) << db.region(id).FullName();
  }
}

TEST(AdminDbTest, LocateRejectsOceanAndInvalid) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  // Middle of the Pacific.
  EXPECT_TRUE(db.Locate({20.0, -150.0}).status().IsNotFound());
  EXPECT_TRUE(db.Locate({91.0, 0.0}).status().IsInvalidArgument());
}

TEST(AdminDbTest, SamplePointInLocatesBack) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  Rng rng(99);
  // Property over every region: sampled activity points always reverse-
  // geocode to the region they were sampled from (the Voronoi-safe
  // radius guarantee the generator/analysis consistency rests on).
  for (size_t i = 0; i < db.size(); ++i) {
    auto id = static_cast<RegionId>(i);
    for (int draw = 0; draw < 10; ++draw) {
      LatLng p = db.SamplePointIn(id, rng);
      ASSERT_TRUE(p.IsValid());
      auto located = db.Locate(p);
      ASSERT_TRUE(located.ok());
      EXPECT_EQ(*located, id) << db.region(id).FullName();
    }
  }
}

TEST(AdminDbTest, HangulLookups) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  // Static name tables.
  EXPECT_STREQ(AdminDb::HangulStateName("Seoul"), "서울");
  EXPECT_STREQ(AdminDb::HangulCountyName("Seoul", "Mapo-gu"), "마포구");
  EXPECT_EQ(AdminDb::HangulStateName("Atlantis"), nullptr);
  EXPECT_EQ(AdminDb::HangulCountyName("Busan", "Jung-gu"), nullptr);
  // Hangul county aliases resolve through FindCounty.
  auto via_hangul = db.FindCounty("Seoul", "마포구");
  auto canonical = db.FindCounty("Seoul", "Mapo-gu");
  ASSERT_TRUE(via_hangul.ok());
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(*via_hangul, *canonical);
}

TEST(AdminDbTest, WorldCitiesBasics) {
  const AdminDb& db = AdminDb::WorldCities();
  EXPECT_GE(db.size(), 60u);
  auto nyc = db.FindCounty("New York", "New York");
  ASSERT_TRUE(nyc.ok());
  auto via_alias = db.FindCounty("New York", "NYC");
  ASSERT_TRUE(via_alias.ok());
  EXPECT_EQ(*nyc, *via_alias);
  auto gold_coast = db.FindCountyAnyState("Gold Coast");
  ASSERT_TRUE(gold_coast.ok());
  EXPECT_EQ(db.region(*gold_coast).country, "Australia");
}

TEST(AdminDbTest, StateCountyPairsUnique) {
  for (const AdminDb* db :
       {&AdminDb::KoreanDistricts(), &AdminDb::WorldCities()}) {
    std::set<std::string> seen;
    for (const Region& region : db->regions()) {
      EXPECT_TRUE(seen.insert(region.state + "|" + region.county).second)
          << "duplicate " << region.FullName();
    }
  }
}

TEST(AdminDbTest, CoverageContainsAllCentroids) {
  const AdminDb& db = AdminDb::KoreanDistricts();
  BoundingBox coverage = db.Coverage();
  for (const Region& region : db.regions()) {
    EXPECT_TRUE(coverage.Contains(region.centroid));
  }
  // Korea is roughly lat 33..38.6, lng 124.5..131.
  EXPECT_GT(coverage.min_lat, 32.0);
  EXPECT_LT(coverage.max_lat, 39.5);
}

/// Reverse geocoding, literally: the region whose centroid is nearest by
/// ApproxDistanceKm (the lowest id on ties), or kInvalidRegion when the
/// point lies beyond its radius plus the coverage slack.
RegionId BruteForceLocate(const AdminDb& db, const LatLng& point) {
  RegionId best = kInvalidRegion;
  double best_km = 0.0;
  for (const Region& region : db.regions()) {
    const double km = ApproxDistanceKm(point, region.centroid);
    if (best == kInvalidRegion || km < best_km) {
      best = region.id;
      best_km = km;
    }
  }
  return best_km > db.region(best).radius_km + db.coverage_slack_km()
             ? kInvalidRegion
             : best;
}

/// Locate's answer as a region id (kInvalidRegion for NotFound).
RegionId LocateOrInvalid(const AdminDb& db, const LatLng& point) {
  auto located = db.Locate(point);
  if (located.ok()) return *located;
  EXPECT_TRUE(located.status().IsNotFound()) << point.ToString();
  return kInvalidRegion;
}

/// Sweeps the coverage box plus 0.4 degrees on each side with steps
/// that do not divide any grid the gazetteer might use; returns the
/// number of points compared.
int64_t ExpectSweepMatchesBruteForce(const AdminDb& db, double lat_step,
                                     double lng_step) {
  const BoundingBox box = db.Coverage().Expanded(0.4);
  int64_t points = 0;
  int64_t mismatches = 0;
  for (double lat = box.min_lat; lat <= box.max_lat; lat += lat_step) {
    for (double lng = box.min_lng; lng <= box.max_lng; lng += lng_step) {
      const LatLng point{lat, lng};
      if (!point.IsValid()) continue;
      ++points;
      const RegionId want = BruteForceLocate(db, point);
      const RegionId got = LocateOrInvalid(db, point);
      if (got != want && ++mismatches <= 5) {
        ADD_FAILURE() << "Locate(" << point.ToString() << ") = " << got
                      << ", brute force " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << points << " points";
  return points;
}

TEST(AdminDbTest, LocateMatchesBruteForceOnAFineSweep) {
  const AdminDb& korea = AdminDb::KoreanDistricts();
  // Jindo-gun's centroid is nearer on the coarse grid, Wando-gun's by
  // distance.
  const LatLng jindo_wando{34.2522, 126.4352};
  ASSERT_EQ(LocateOrInvalid(korea, jindo_wando),
            BruteForceLocate(korea, jindo_wando));
  EXPECT_EQ(korea.region(LocateOrInvalid(korea, jindo_wando)).county,
            "Wando-gun");
  EXPECT_GT(ExpectSweepMatchesBruteForce(korea, 0.0113, 0.0127), 200000);
  EXPECT_GT(ExpectSweepMatchesBruteForce(AdminDb::WorldCities(), 0.29, 0.31),
            200000);
}

TEST(AdminDbTest, LocateMatchesBruteForceOnCentroidsAndGeneratedFixes) {
  for (const AdminDb* db :
       {&AdminDb::KoreanDistricts(), &AdminDb::WorldCities()}) {
    for (const Region& region : db->regions()) {
      EXPECT_EQ(LocateOrInvalid(*db, region.centroid),
                BruteForceLocate(*db, region.centroid))
          << region.FullName();
    }
  }
  const AdminDb& korea = AdminDb::KoreanDistricts();
  twitter::DatasetGeneratorOptions options =
      twitter::DatasetGenerator::KoreanConfig(0.05);
  options.seed = 11;
  const twitter::GeneratedData data =
      twitter::DatasetGenerator(&korea, options).Generate();
  int64_t fixes = 0;
  for (const twitter::Tweet& tweet : data.dataset.tweets()) {
    if (!tweet.gps.has_value()) continue;
    ++fixes;
    ASSERT_EQ(LocateOrInvalid(korea, *tweet.gps),
              BruteForceLocate(korea, *tweet.gps))
        << tweet.gps->ToString();
  }
  EXPECT_GT(fixes, 1000);
}

TEST(AdminDbTest, LocateMatchesBruteForceAcrossCoverageEdges) {
  // Rays out of every centroid through a band of +-1% around its reach,
  // ~8 m apart in Korea: where the ray leaves coverage, the answer flips
  // from the district to NotFound exactly where brute force says.
  for (const AdminDb* db :
       {&AdminDb::KoreanDistricts(), &AdminDb::WorldCities()}) {
    int64_t flips = 0;
    for (const Region& region : db->regions()) {
      const double reach_km = region.radius_km + db->coverage_slack_km();
      for (double bearing : {10.0, 100.0, 190.0, 280.0}) {
        RegionId previous = region.id;
        for (int step = -50; step <= 50; ++step) {
          const LatLng point = Destination(
              region.centroid, bearing, reach_km * (1.0 + step * 0.0002));
          const RegionId want = BruteForceLocate(*db, point);
          ASSERT_EQ(LocateOrInvalid(*db, point), want)
              << region.FullName() << " " << point.ToString();
          if (want == kInvalidRegion && previous == region.id) ++flips;
          previous = want;
        }
      }
    }
    EXPECT_GT(flips, 20) << db->size() << " regions";
  }
}

TEST(AdminDbTest, LocateMatchesBruteForceAtCellCornersAndEdges) {
  // The raster's distance bounds are tight at a cell's corners and along
  // its edges, which the sweeps above rarely hit. Wherever a cell holds a
  // candidate run or borders a cell holding anything else, check its
  // corners, edge midpoints and centre, each inset by a millionth of the
  // cell so the lookup maps it into that cell.
  for (const AdminDb* db :
       {&AdminDb::KoreanDistricts(), &AdminDb::WorldCities()}) {
    const DistrictRaster& raster = db->raster();
    int64_t cells = 0;
    int64_t mismatches = 0;
    for (int row = 0; row < raster.rows(); ++row) {
      for (int col = 0; col < raster.cols(); ++col) {
        const int32_t entry = raster.cell(row, col);
        bool border = entry < -1;
        for (int r = std::max(0, row - 1);
             r <= std::min(raster.rows() - 1, row + 1); ++r) {
          for (int c = std::max(0, col - 1);
               c <= std::min(raster.cols() - 1, col + 1); ++c) {
            border = border || raster.cell(r, c) != entry;
          }
        }
        if (!border) continue;
        ++cells;
        const BoundingBox box = raster.CellBox(row, col);
        const double inset_lat = (box.max_lat - box.min_lat) * 1e-6;
        const double inset_lng = (box.max_lng - box.min_lng) * 1e-6;
        for (double lat : {box.min_lat + inset_lat,
                           (box.min_lat + box.max_lat) / 2.0,
                           box.max_lat - inset_lat}) {
          for (double lng : {box.min_lng + inset_lng,
                             (box.min_lng + box.max_lng) / 2.0,
                             box.max_lng - inset_lng}) {
            const LatLng point{lat, lng};
            if (!point.IsValid()) continue;
            const RegionId want = BruteForceLocate(*db, point);
            const RegionId got = LocateOrInvalid(*db, point);
            if (got != want && ++mismatches <= 5) {
              ADD_FAILURE() << "Locate(" << point.ToString() << ") = " << got
                            << ", brute force " << want;
            }
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << "in " << cells << " cells";
    EXPECT_GT(cells, 1000) << db->size() << " regions";
  }
}

TEST(AdminDbTest, LocateStaysExactWhenTheGridWouldOutgrowItsCap) {
  // Two centroids a metre apart set a sub-metre cell size over a box
  // hundreds of kilometres wide; the raster coarsens to its cell cap and
  // stays exact.
  std::vector<Region> regions;
  for (LatLng centroid : {LatLng{37.5, 127.0}, LatLng{37.50001, 127.0},
                          LatLng{33.5, 126.5}}) {
    Region region;
    region.state = "S";
    region.county = StrFormat("C%zu", regions.size());
    region.centroid = centroid;
    regions.push_back(std::move(region));
  }
  const AdminDb db(regions, 25.0);
  EXPECT_LE(static_cast<int64_t>(db.raster().rows()) * db.raster().cols(),
            int64_t{4200000});
  for (double lat = 33.0; lat <= 38.0; lat += 0.0517) {
    for (double lng = 126.0; lng <= 127.5; lng += 0.0231) {
      EXPECT_EQ(LocateOrInvalid(db, {lat, lng}),
                BruteForceLocate(db, {lat, lng}));
    }
  }
  for (double d = -2e-5; d <= 3e-5; d += 1e-6) {
    const LatLng point{37.5 + d, 127.0 + d / 3.0};
    EXPECT_EQ(LocateOrInvalid(db, point), BruteForceLocate(db, point));
  }
}

TEST(AdminDbTest, RasterResolvesMostCellsWithOneRead) {
  for (const AdminDb* db :
       {&AdminDb::KoreanDistricts(), &AdminDb::WorldCities()}) {
    const DistrictRaster& raster = db->raster();
    const int64_t cells = static_cast<int64_t>(raster.rows()) * raster.cols();
    EXPECT_GT(raster.single_cells() * 2, cells);
    EXPECT_GE(raster.MemoryBytes(), cells * 4);
    EXPECT_LT(raster.MemoryBytes(), 16 << 20);
  }
}

}  // namespace
}  // namespace stir::geo
