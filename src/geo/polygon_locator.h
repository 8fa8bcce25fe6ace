#ifndef STIR_GEO_POLYGON_LOCATOR_H_
#define STIR_GEO_POLYGON_LOCATOR_H_

#include <vector>

#include "common/status.h"
#include "geo/admin_db.h"
#include "geo/grid_index.h"
#include "geo/polygon.h"

namespace stir::geo {

/// Alternative district assignment for the ablation called out in
/// DESIGN.md §5: instead of nearest-centroid (Voronoi) assignment, build
/// an explicit polygon footprint per region (a regular n-gon of the
/// region's radius) and do point-in-polygon tests, falling back to
/// nearest-centroid where footprints overlap or leave gaps.
///
/// The real Yahoo API worked from true administrative polygons; this
/// locator brackets the modelling error between "polygons" and
/// "centroids" so the study's sensitivity to the geocoding model is
/// measurable (see bench_ablation_geocoding).
class PolygonLocator {
 public:
  /// `db` must outlive the locator. `sides` controls footprint fidelity.
  explicit PolygonLocator(const AdminDb* db, int sides = 18);

  /// Regions whose footprint contains `point` (possibly several: the
  /// n-gon footprints of adjacent districts overlap).
  std::vector<RegionId> Candidates(const LatLng& point) const;

  /// Deterministic assignment: the unique containing footprint when
  /// there is exactly one; otherwise the nearest centroid among the
  /// containing footprints; NotFound when no footprint contains the
  /// point and the AdminDb's own Locate also rejects it.
  StatusOr<RegionId> Locate(const LatLng& point) const;

  const Polygon& footprint(RegionId id) const;

 private:
  const AdminDb* db_;
  std::vector<Polygon> footprints_;
  GridIndex centroid_index_;
};

}  // namespace stir::geo

#endif  // STIR_GEO_POLYGON_LOCATOR_H_
