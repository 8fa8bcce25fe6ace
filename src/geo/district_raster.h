#ifndef STIR_GEO_DISTRICT_RASTER_H_
#define STIR_GEO_DISTRICT_RASTER_H_

#include <cstdint>
#include <vector>

#include "geo/latlng.h"

namespace stir::geo {

/// District-ownership raster: exact nearest-centroid reverse geocoding as
/// an array read (DESIGN.md §17).
///
/// A uniform lat/lng grid of `cell_km` cells covers the centroids'
/// bounding box widened by the largest reach. For every cell the build
/// bounds the distance from any point of the (guard-widened) cell to each
/// centroid; a centroid whose lower bound exceeds the smallest upper bound
/// can never be nearest there. A cell left with one candidate that reaches
/// every point of the cell stores that id, so its lookups are one array
/// read. Every other cell stores a short candidate run, scanned with
/// ApproxDistanceKm in id order; points off the grid scan every centroid.
/// A cell no point of which any candidate reaches is one read too.
/// Either way the answer is a brute-force scan's: the centroid nearest by
/// ApproxDistanceKm, the lowest id on ties, when the point lies within
/// that centroid's reach.
class DistrictRaster {
 public:
  /// `centroids` and `reach_km` are indexed by id, equally long and not
  /// empty: a point farther than `reach_km[i]` from its nearest centroid
  /// `i` is not covered. `cell_km` (> 0) is the cell side.
  DistrictRaster(std::vector<LatLng> centroids, std::vector<double> reach_km,
                 double cell_km);

  /// The id of the centroid nearest to `point` (lowest id on ties) when
  /// the point lies within its reach; -1 otherwise. `point` must be valid.
  int32_t Locate(const LatLng& point) const {
    const double row = (point.lat - min_lat_) * inv_cell_lat_;
    const double col = (point.lng - min_lng_) * inv_cell_lng_;
    if (row >= 0.0 && col >= 0.0 && row < rows_ && col < cols_) {
      const int32_t cell =
          cells_[static_cast<size_t>(row) * static_cast<size_t>(cols_) +
                 static_cast<size_t>(col)];
      if (cell >= -1) return cell;
      return ScanRun(point, ~static_cast<uint32_t>(cell));
    }
    return ScanRun(point, kAllCentroids);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// The extent of cell (row, col), before the build's guard widening.
  BoundingBox CellBox(int row, int col) const;
  /// What cell (row, col) holds: its one id, -1 (never covered), or a
  /// value below -1 (a candidate run).
  int32_t cell(int row, int col) const {
    return cells_[static_cast<size_t>(row) * static_cast<size_t>(cols_) +
                  static_cast<size_t>(col)];
  }
  /// Cells whose lookups are one array read (owned or never covered).
  int64_t single_cells() const { return single_cells_; }
  /// Heap bytes held by the grid and its candidate runs.
  int64_t MemoryBytes() const;

 private:
  /// Run 0 lists every centroid: the scan for points off the grid. No
  /// cell stores it, which frees ~0 == -1 for cells never covered.
  static constexpr uint32_t kAllCentroids = 0;

  /// Nearest centroid among run `run`'s ids, then the reach check.
  int32_t ScanRun(const LatLng& point, uint32_t run) const;
  /// Appends a candidate run; returns its index.
  uint32_t AddRun(const std::vector<int32_t>& ids);
  struct BuildScratch;
  /// Resolves the square block of `size` cells on a side at (row, col),
  /// clipped to the grid, given the candidates of recursion `depth`
  /// (which include every centroid nearest anywhere in the block).
  void Resolve(int row, int col, int size, int depth, BuildScratch* scratch);

  std::vector<LatLng> centroids_;
  std::vector<double> reach_km_;
  double min_lat_ = 0.0;
  double min_lng_ = 0.0;
  double cell_lat_deg_ = 0.0;
  double cell_lng_deg_ = 0.0;
  double inv_cell_lat_ = 0.0;
  double inv_cell_lng_ = 0.0;
  int rows_ = 0;
  int cols_ = 0;
  /// Row-major. >= 0: the cell's one id; -1: never covered; < -1:
  /// ~index of its run.
  std::vector<int32_t> cells_;
  /// Run k holds run_ids_[run_begin_[k], run_begin_[k + 1]), ascending.
  std::vector<uint32_t> run_begin_;
  std::vector<int32_t> run_ids_;
  int64_t single_cells_ = 0;
};

}  // namespace stir::geo

#endif  // STIR_GEO_DISTRICT_RASTER_H_
