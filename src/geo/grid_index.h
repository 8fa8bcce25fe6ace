#ifndef STIR_GEO_GRID_INDEX_H_
#define STIR_GEO_GRID_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geo/latlng.h"

namespace stir::geo {

/// Uniform lat/lng grid over point payloads for radius queries (the
/// polygon locator's footprint candidates). Cells are `cell_deg` degrees
/// on a side. Nearest-centroid lookups go through DistrictRaster.
class GridIndex {
 public:
  /// `cell_deg` must be positive; 0.25 deg (~25 km) suits district-scale
  /// data.
  explicit GridIndex(double cell_deg = 0.25);

  /// Adds a point with an opaque payload id.
  void Add(const LatLng& point, int64_t id);

  size_t size() const { return points_.size(); }

  /// Ids of all points within `radius_km` of `query`, unordered.
  std::vector<int64_t> WithinRadius(const LatLng& query,
                                    double radius_km) const;

 private:
  struct Entry {
    LatLng point;
    int64_t id;
  };

  int64_t CellKey(int row, int col) const;
  int RowOf(double lat) const;
  int ColOf(double lng) const;

  double cell_deg_;
  std::vector<Entry> points_;
  std::unordered_map<int64_t, std::vector<uint32_t>> cells_;
};

}  // namespace stir::geo

#endif  // STIR_GEO_GRID_INDEX_H_
