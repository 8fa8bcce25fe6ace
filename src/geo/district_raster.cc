#include "geo/district_raster.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace stir::geo {

namespace {

/// Kilometres per degree of latitude under ApproxDistanceKm.
constexpr double kKmPerDegree = kEarthRadiusKm * M_PI / 180.0;
/// Widening of every cell's extent, so a point the lookup's floating-point
/// row/column arithmetic maps into a cell lies inside the extent bounded.
constexpr double kGuardDeg = 1e-9;
/// Slack on every bound comparison, far above the rounding error of an
/// ApproxDistanceKm evaluation (~1e-11 km at antipodal range).
constexpr double kToleranceKm = 1e-6;
/// Grid size cap (16 MB of cells); a finer gazetteer gets coarser cells.
constexpr double kMaxCells = 4.0 * 1024 * 1024;

/// Bounds on ApproxDistanceKm(p, c) over the points p of a rectangle.
struct DistanceBounds {
  double lo;
  double hi;
};

/// A latitude with the cosine and sine of half of it (radians), so the
/// mean-latitude cosine ApproxDistanceKm applies costs no trigonometric
/// call per centroid: cos((a + b) / 2) from the halves of a and b.
struct Latitude {
  double deg;
  double cos_half;
  double sin_half;

  explicit Latitude(double lat)
      : deg(lat),
        cos_half(std::cos(DegToRad(lat) / 2.0)),
        sin_half(std::sin(DegToRad(lat) / 2.0)) {}
};

/// Bounds over the rectangle [lat0, lat1] x [lng0, lng1] to centroid `c`.
DistanceBounds BoundDistance(const Latitude& lat0, const Latitude& lat1,
                             double lng0, double lng1, const Latitude& c_lat,
                             double c_lng) {
  const double c = c_lat.deg;
  const double dlat_lo = std::max({lat0.deg - c, c - lat1.deg, 0.0});
  const double dlat_hi = std::max(std::fabs(c - lat0.deg),
                                  std::fabs(c - lat1.deg));
  const double dlng_lo = std::max({lng0 - c_lng, c_lng - lng1, 0.0});
  const double dlng_hi = std::max(std::fabs(c_lng - lng0),
                                  std::fabs(c_lng - lng1));
  // ApproxDistanceKm scales the longitude gap by the cosine of the mean
  // latitude, which spans [(lat0 + c) / 2, (lat1 + c) / 2] here; the
  // cosine peaks at the equator and is smallest at an end.
  const double cos_mid0 =
      lat0.cos_half * c_lat.cos_half - lat0.sin_half * c_lat.sin_half;
  const double cos_mid1 =
      lat1.cos_half * c_lat.cos_half - lat1.sin_half * c_lat.sin_half;
  const double cos_lo = std::max(0.0, std::min(cos_mid0, cos_mid1));
  const double cos_hi = (lat0.deg + c <= 0.0 && lat1.deg + c >= 0.0)
                            ? 1.0
                            : std::max(cos_mid0, cos_mid1);
  const double x_lo = DegToRad(dlng_lo) * cos_lo;
  const double y_lo = DegToRad(dlat_lo);
  const double x_hi = DegToRad(dlng_hi) * cos_hi;
  const double y_hi = DegToRad(dlat_hi);
  return {kEarthRadiusKm * std::sqrt(x_lo * x_lo + y_lo * y_lo),
          kEarthRadiusKm * std::sqrt(x_hi * x_hi + y_hi * y_hi)};
}

}  // namespace

/// Build-time state: the latitudes of the centroids and of every row
/// boundary (guard-widened down as a lower edge, up as an upper edge),
/// and the candidate list of every recursion depth (reused across
/// siblings).
struct DistrictRaster::BuildScratch {
  std::vector<Latitude> centroid_lats;
  std::vector<Latitude> lower_edges;
  std::vector<Latitude> upper_edges;
  std::vector<std::vector<int32_t>> candidates;
  std::vector<DistanceBounds> bounds;
};

DistrictRaster::DistrictRaster(std::vector<LatLng> centroids,
                               std::vector<double> reach_km, double cell_km)
    : centroids_(std::move(centroids)), reach_km_(std::move(reach_km)) {
  STIR_CHECK(!centroids_.empty());
  STIR_CHECK_EQ(centroids_.size(), reach_km_.size());
  STIR_CHECK_GT(cell_km, 0.0);

  // The grid spans every point within reach of some centroid; lookups
  // elsewhere are never covered and take the all-centroid scan.
  BoundingBox box;
  double max_reach_km = 0.0;
  for (size_t i = 0; i < centroids_.size(); ++i) {
    box.Extend(centroids_[i]);
    max_reach_km = std::max(max_reach_km, reach_km_[i]);
  }
  const double lat_margin = max_reach_km / kKmPerDegree;
  min_lat_ = std::max(-90.0, box.min_lat - lat_margin);
  const double max_lat = std::min(90.0, box.max_lat + lat_margin);
  const double cos_edge = std::max(
      0.05, std::cos(DegToRad(std::max(std::fabs(min_lat_),
                                       std::fabs(max_lat)))));
  const double lng_margin = max_reach_km / (kKmPerDegree * cos_edge);
  min_lng_ = std::max(-180.0, box.min_lng - lng_margin);
  const double max_lng = std::min(180.0, box.max_lng + lng_margin);

  // Cells of cell_km on a side at the box's mid latitude.
  const double cos_mid =
      std::max(0.05, std::cos(DegToRad((min_lat_ + max_lat) / 2.0)));
  cell_lat_deg_ = cell_km / kKmPerDegree;
  cell_lng_deg_ = cell_km / (kKmPerDegree * cos_mid);
  const double cells = std::ceil((max_lat - min_lat_) / cell_lat_deg_) *
                       std::ceil((max_lng - min_lng_) / cell_lng_deg_);
  if (cells > kMaxCells) {
    const double scale = std::sqrt(cells / kMaxCells);
    cell_lat_deg_ *= scale;
    cell_lng_deg_ *= scale;
  }
  rows_ = std::max(
      1, static_cast<int>(std::ceil((max_lat - min_lat_) / cell_lat_deg_)));
  cols_ = std::max(
      1, static_cast<int>(std::ceil((max_lng - min_lng_) / cell_lng_deg_)));
  inv_cell_lat_ = 1.0 / cell_lat_deg_;
  inv_cell_lng_ = 1.0 / cell_lng_deg_;

  BuildScratch scratch;
  std::vector<int32_t> all(centroids_.size());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<int32_t>(i);
    scratch.centroid_lats.emplace_back(centroids_[i].lat);
  }
  for (int row = 0; row <= rows_; ++row) {
    const double lat = min_lat_ + row * cell_lat_deg_;
    scratch.lower_edges.emplace_back(lat - kGuardDeg);
    scratch.upper_edges.emplace_back(lat + kGuardDeg);
  }
  run_begin_.push_back(0);
  AddRun(all);  // kAllCentroids
  cells_.assign(static_cast<size_t>(rows_) * static_cast<size_t>(cols_), 0);
  int size = 1;
  int depth = 1;
  for (; size < rows_ || size < cols_; size *= 2) ++depth;
  scratch.candidates.resize(static_cast<size_t>(depth) + 1);
  scratch.candidates[0] = std::move(all);
  Resolve(0, 0, size, 0, &scratch);
}

int32_t DistrictRaster::ScanRun(const LatLng& point, uint32_t run) const {
  const int32_t* id = run_ids_.data() + run_begin_[run];
  const int32_t* end = run_ids_.data() + run_begin_[run + 1];
  int32_t best = *id;
  double best_km =
      ApproxDistanceKm(point, centroids_[static_cast<size_t>(best)]);
  for (++id; id != end; ++id) {
    const double km =
        ApproxDistanceKm(point, centroids_[static_cast<size_t>(*id)]);
    if (km < best_km) {
      best = *id;
      best_km = km;
    }
  }
  return best_km > reach_km_[static_cast<size_t>(best)] ? -1 : best;
}

uint32_t DistrictRaster::AddRun(const std::vector<int32_t>& ids) {
  run_ids_.insert(run_ids_.end(), ids.begin(), ids.end());
  run_begin_.push_back(static_cast<uint32_t>(run_ids_.size()));
  return static_cast<uint32_t>(run_begin_.size() - 2);
}

void DistrictRaster::Resolve(int row, int col, int size, int depth,
                             BuildScratch* scratch) {
  const int row_end = std::min(rows_, row + size);
  const int col_end = std::min(cols_, col + size);
  const Latitude& lat0 = scratch->lower_edges[static_cast<size_t>(row)];
  const Latitude& lat1 = scratch->upper_edges[static_cast<size_t>(row_end)];
  const double lng0 = min_lng_ + col * cell_lng_deg_ - kGuardDeg;
  const double lng1 = min_lng_ + col_end * cell_lng_deg_ + kGuardDeg;
  const std::vector<int32_t>& from =
      scratch->candidates[static_cast<size_t>(depth)];
  std::vector<int32_t>& keep =
      scratch->candidates[static_cast<size_t>(depth) + 1];

  // No point here is farther from its nearest centroid than the smallest
  // upper bound, so a centroid whose lower bound exceeds it is never
  // nearest here.
  std::vector<DistanceBounds>& bounds = scratch->bounds;
  bounds.resize(from.size());
  double best_hi = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < from.size(); ++i) {
    const size_t id = static_cast<size_t>(from[i]);
    bounds[i] = BoundDistance(lat0, lat1, lng0, lng1,
                              scratch->centroid_lats[id], centroids_[id].lng);
    best_hi = std::min(best_hi, bounds[i].hi);
  }
  keep.clear();
  DistanceBounds kept{0.0, 0.0};
  // Whichever candidate is nearest, it is out of reach everywhere here.
  bool never_covered = true;
  for (size_t i = 0; i < from.size(); ++i) {
    if (bounds[i].lo <= best_hi + kToleranceKm) {
      keep.push_back(from[i]);
      kept = bounds[i];
      never_covered = never_covered &&
                      bounds[i].lo - kToleranceKm >
                          reach_km_[static_cast<size_t>(from[i])];
    }
  }

  auto fill = [&](int32_t value) {
    for (int r = row; r < row_end; ++r) {
      std::fill_n(cells_.begin() + static_cast<ptrdiff_t>(r) * cols_ + col,
                  col_end - col, value);
    }
  };
  const bool owned =
      keep.size() == 1 &&
      kept.hi + kToleranceKm <= reach_km_[static_cast<size_t>(keep.front())];
  if (owned || never_covered) {
    fill(owned ? keep.front() : -1);
    single_cells_ += static_cast<int64_t>(row_end - row) * (col_end - col);
    return;
  }
  if (size == 1) {
    fill(static_cast<int32_t>(~AddRun(keep)));
    return;
  }
  const int half = size / 2;
  for (int r = row; r < row_end; r += half) {
    for (int c = col; c < col_end; c += half) {
      Resolve(r, c, half, depth + 1, scratch);
    }
  }
}

BoundingBox DistrictRaster::CellBox(int row, int col) const {
  BoundingBox box;
  box.min_lat = min_lat_ + row * cell_lat_deg_;
  box.max_lat = min_lat_ + (row + 1) * cell_lat_deg_;
  box.min_lng = min_lng_ + col * cell_lng_deg_;
  box.max_lng = min_lng_ + (col + 1) * cell_lng_deg_;
  return box;
}

int64_t DistrictRaster::MemoryBytes() const {
  return static_cast<int64_t>(
      cells_.capacity() * sizeof(int32_t) +
      run_begin_.capacity() * sizeof(uint32_t) +
      run_ids_.capacity() * sizeof(int32_t) +
      centroids_.capacity() * sizeof(LatLng) +
      reach_km_.capacity() * sizeof(double));
}

}  // namespace stir::geo
