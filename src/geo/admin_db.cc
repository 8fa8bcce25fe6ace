#include "geo/admin_db.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"

namespace stir::geo {

namespace {

std::vector<Region> BuildRegions(
    const internal_admin_data::RawCounty* rows, size_t count) {
  std::vector<Region> regions;
  regions.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const auto& row = rows[i];
    Region r;
    r.country = row.country;
    r.state = row.state;
    r.county = row.county;
    r.centroid = LatLng{row.lat, row.lng};
    r.radius_km = row.radius_km;
    if (row.alias != nullptr) r.aliases.emplace_back(row.alias);
    regions.push_back(std::move(r));
  }
  return regions;
}

}  // namespace

std::string AdminDb::Key(std::string_view state, std::string_view county) {
  return ToLower(state) + "|" + ToLower(county);
}

AdminDb::AdminDb(std::vector<Region> regions, double coverage_slack_km)
    : regions_(std::move(regions)), coverage_slack_km_(coverage_slack_km) {
  STIR_CHECK(!regions_.empty());
  for (size_t i = 0; i < regions_.size(); ++i) {
    Region& r = regions_[i];
    r.id = static_cast<RegionId>(i);
    STIR_CHECK(r.centroid.IsValid());
    if (std::find(states_.begin(), states_.end(), r.state) == states_.end()) {
      states_.push_back(r.state);
    }
    by_state_county_[Key(r.state, r.county)] = r.id;
    for (const std::string& alias : r.aliases) {
      by_state_county_[Key(r.state, alias)] = r.id;
      by_county_[ToLower(alias)].push_back(r.id);
    }
    by_county_[ToLower(r.county)].push_back(r.id);
    coverage_.Extend(r.centroid);
  }
  // Compute the safe (Voronoi-interior) radius of every region: half the
  // distance to the nearest other centroid, capped by the footprint radius.
  std::vector<double> nearest_km;
  nearest_km.reserve(regions_.size());
  for (Region& r : regions_) {
    double nearest = std::numeric_limits<double>::infinity();
    for (const Region& other : regions_) {
      if (other.id == r.id) continue;
      nearest = std::min(nearest, ApproxDistanceKm(r.centroid, other.centroid));
    }
    double safe = std::isfinite(nearest) ? nearest * 0.45 : r.radius_km;
    r.safe_radius_km = std::min(r.radius_km, std::max(0.3, safe));
    nearest_km.push_back(nearest);
  }

  // The ownership raster's cells are a quarter of the 25th-percentile
  // nearest-neighbour distance: fine where districts are dense, so most
  // lookups land in a cell one district owns outright.
  std::vector<LatLng> centroids;
  std::vector<double> reach_km;
  for (const Region& r : regions_) {
    centroids.push_back(r.centroid);
    reach_km.push_back(r.radius_km + coverage_slack_km_);
  }
  auto quartile = nearest_km.begin() +
                  static_cast<std::ptrdiff_t>(nearest_km.size() / 4);
  std::nth_element(nearest_km.begin(), quartile, nearest_km.end());
  const double cell_km = *quartile / 4.0;
  raster_.emplace(std::move(centroids), std::move(reach_km),
                  std::isfinite(cell_km) && cell_km > 0.0 ? cell_km : 1.0);

  // Intern-once name table: dedupe (state, county) pairs into dense
  // keys, then rank each key by its "state#county" bytes — the exact
  // comparison a string-keyed Table II merge performs between two of
  // one user's records (their "user#pstate#pcounty#" prefix is shared).
  std::unordered_map<std::string, uint32_t> key_ids;
  district_names_.key_of_region.reserve(regions_.size());
  for (const Region& r : regions_) {
    std::string suffix = r.state + "#" + r.county;
    auto [it, inserted] = key_ids.emplace(
        std::move(suffix), static_cast<uint32_t>(district_names_.names.size()));
    if (inserted) {
      DistrictNameTable::Name name;
      name.state = r.state;
      name.county = r.county;
      name.display = r.state + " " + r.county;
      district_names_.names.push_back(std::move(name));
    }
    district_names_.key_of_region.push_back(it->second);
  }
  std::vector<uint32_t> by_suffix(district_names_.names.size());
  for (uint32_t k = 0; k < by_suffix.size(); ++k) by_suffix[k] = k;
  std::sort(by_suffix.begin(), by_suffix.end(),
            [this](uint32_t a, uint32_t b) {
              const DistrictNameTable::Name& na = district_names_.names[a];
              const DistrictNameTable::Name& nb = district_names_.names[b];
              return na.state + "#" + na.county < nb.state + "#" + nb.county;
            });
  for (uint32_t rank = 0; rank < by_suffix.size(); ++rank) {
    district_names_.names[by_suffix[rank]].lex_rank = rank;
  }
}

const Region& AdminDb::region(RegionId id) const {
  STIR_CHECK_GE(id, 0);
  STIR_CHECK_LT(static_cast<size_t>(id), regions_.size());
  return regions_[static_cast<size_t>(id)];
}

std::vector<RegionId> AdminDb::CountiesInState(std::string_view state) const {
  std::vector<RegionId> result;
  for (const Region& r : regions_) {
    if (EqualsIgnoreCase(r.state, state)) result.push_back(r.id);
  }
  return result;
}

StatusOr<RegionId> AdminDb::FindCounty(std::string_view state,
                                       std::string_view county) const {
  auto it = by_state_county_.find(Key(state, county));
  if (it == by_state_county_.end()) {
    return Status::NotFound(std::string("no such county: ") +
                            std::string(state) + " / " + std::string(county));
  }
  return it->second;
}

StatusOr<RegionId> AdminDb::FindCountyAnyState(std::string_view county) const {
  auto it = by_county_.find(ToLower(county));
  if (it == by_county_.end()) {
    return Status::NotFound("no such county: " + std::string(county));
  }
  // Distinct regions under this name (a region may appear twice when an
  // alias equals its own name).
  std::vector<RegionId> distinct = it->second;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  if (distinct.size() > 1) {
    return Status::AlreadyExists("ambiguous county name: " +
                                 std::string(county));
  }
  return distinct.front();
}

StatusOr<RegionId> AdminDb::Locate(const LatLng& point) const {
  if (!point.IsValid()) {
    return Status::InvalidArgument("invalid coordinate: " + point.ToString());
  }
  const RegionId id = raster_->Locate(point);
  if (id == kInvalidRegion) {
    return Status::NotFound("point outside coverage: " + point.ToString());
  }
  return id;
}

LatLng AdminDb::SamplePointIn(RegionId id, Rng& rng) const {
  const Region& r = region(id);
  // Rayleigh-ish radial density (uniform disc would be sqrt(u)) truncated
  // to the safe radius: activity clusters toward the district center.
  for (int attempt = 0; attempt < 64; ++attempt) {
    double dist = std::fabs(rng.Normal(0.0, r.safe_radius_km * 0.5));
    if (dist > r.safe_radius_km * 0.95) continue;
    double bearing = rng.Uniform(0.0, 360.0);
    LatLng p = Destination(r.centroid, bearing, dist);
    if (p.IsValid()) return p;
  }
  return r.centroid;
}

const char* AdminDb::HangulStateName(std::string_view state) {
  for (size_t i = 0; i < internal_admin_data::kHangulStateAliasCount; ++i) {
    const auto& alias = internal_admin_data::kHangulStateAliases[i];
    if (EqualsIgnoreCase(alias.state, state)) return alias.hangul;
  }
  return nullptr;
}

const char* AdminDb::HangulCountyName(std::string_view state,
                                      std::string_view county) {
  for (size_t i = 0; i < internal_admin_data::kHangulCountyAliasCount; ++i) {
    const auto& alias = internal_admin_data::kHangulCountyAliases[i];
    if (EqualsIgnoreCase(alias.state, state) &&
        EqualsIgnoreCase(alias.county, county)) {
      return alias.hangul;
    }
  }
  return nullptr;
}

const AdminDb& AdminDb::KoreanDistricts() {
  static const AdminDb& db = *new AdminDb(
      [] {
        std::vector<Region> regions =
            BuildRegions(internal_admin_data::kKoreanCounties,
                         internal_admin_data::kKoreanCountyCount);
        // Attach hangul county spellings as aliases so text lookups
        // resolve Korean-script profile locations (paper Fig. 3).
        for (Region& region : regions) {
          const char* hangul = HangulCountyName(region.state, region.county);
          if (hangul != nullptr) region.aliases.emplace_back(hangul);
        }
        return regions;
      }(),
      /*coverage_slack_km=*/25.0);
  return db;
}

const AdminDb& AdminDb::WorldCities() {
  static const AdminDb& db = *new AdminDb(
      BuildRegions(internal_admin_data::kWorldCities,
                   internal_admin_data::kWorldCityCount),
      /*coverage_slack_km=*/120.0);
  return db;
}

}  // namespace stir::geo
