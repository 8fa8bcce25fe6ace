#include "geo/grid_index.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace stir::geo {

GridIndex::GridIndex(double cell_deg) : cell_deg_(cell_deg) {
  STIR_CHECK_GT(cell_deg, 0.0);
}

int GridIndex::RowOf(double lat) const {
  return static_cast<int>(std::floor((lat + 90.0) / cell_deg_));
}

int GridIndex::ColOf(double lng) const {
  return static_cast<int>(std::floor((lng + 180.0) / cell_deg_));
}

int64_t GridIndex::CellKey(int row, int col) const {
  return (static_cast<int64_t>(row) << 32) ^
         static_cast<int64_t>(static_cast<uint32_t>(col));
}

void GridIndex::Add(const LatLng& point, int64_t id) {
  uint32_t slot = static_cast<uint32_t>(points_.size());
  points_.push_back(Entry{point, id});
  cells_[CellKey(RowOf(point.lat), ColOf(point.lng))].push_back(slot);
}

std::vector<int64_t> GridIndex::WithinRadius(const LatLng& query,
                                             double radius_km) const {
  std::vector<int64_t> result;
  if (points_.empty() || radius_km < 0.0) return result;
  double cos_lat = std::max(0.05, std::cos(DegToRad(query.lat)));
  double lat_margin = radius_km / 111.32;
  double lng_margin = radius_km / (111.32 * cos_lat);
  int row_lo = RowOf(query.lat - lat_margin);
  int row_hi = RowOf(query.lat + lat_margin);
  int col_lo = ColOf(query.lng - lng_margin);
  int col_hi = ColOf(query.lng + lng_margin);
  for (int row = row_lo; row <= row_hi; ++row) {
    for (int col = col_lo; col <= col_hi; ++col) {
      auto it = cells_.find(CellKey(row, col));
      if (it == cells_.end()) continue;
      for (uint32_t slot : it->second) {
        const Entry& e = points_[slot];
        if (ApproxDistanceKm(query, e.point) <= radius_km) {
          result.push_back(e.id);
        }
      }
    }
  }
  return result;
}

}  // namespace stir::geo
