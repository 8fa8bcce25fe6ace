#ifndef STIR_GEO_ADMIN_DB_H_
#define STIR_GEO_ADMIN_DB_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "geo/district_raster.h"
#include "geo/latlng.h"

namespace stir::geo {

/// Stable handle into an AdminDb (index into its region table).
using RegionId = int32_t;
inline constexpr RegionId kInvalidRegion = -1;

/// A second-level administrative district (si/gun/gu in Korea; a city for
/// the world gazetteer). The paper's unit of analysis: the Yahoo API's
/// <state> + <county> pair.
struct Region {
  RegionId id = kInvalidRegion;
  std::string country;
  std::string state;   ///< First-level division (si/do, US state, ...).
  std::string county;  ///< Second-level division (si/gun/gu, city).
  LatLng centroid;
  double radius_km = 5.0;  ///< Approximate footprint radius.
  /// Largest radius around the centroid guaranteed to be closer to this
  /// centroid than to any other (half the nearest-neighbour distance).
  /// Points sampled within it reverse-geocode back to this region.
  double safe_radius_km = 5.0;
  std::vector<std::string> aliases;  ///< Alternate county spellings.

  /// "State County", e.g. "Seoul Yangcheon-gu".
  std::string FullName() const { return state + " " + county; }
};

/// Intern-once district name table, precomputed by every AdminDb
/// (DESIGN.md §14). Each region resolves to a dense *name key*; regions
/// whose (state, county) names coincide share a key, exactly the way
/// string-keyed merges collapse them. Each key carries its display
/// strings plus the byte-wise lexicographic rank of its "state#county"
/// rendering, so the grouping pass can merge and order per-tweet
/// districts as an integer-column operation — no per-tweet string
/// building, no re-hashing — and still reproduce the string pipeline's
/// order bit for bit. serve::StudyIndex names its districts by the same
/// keys.
struct DistrictNameTable {
  struct Name {
    std::string state;
    std::string county;
    /// "State County" — the serving/display rendering.
    std::string display;
    /// Rank of "state#county" among all distinct keys, byte-wise
    /// ascending (the order a std::map over Table I record strings
    /// yields for one user's records).
    uint32_t lex_rank = 0;
  };
  /// RegionId -> name key (dense, size() == region count).
  std::vector<uint32_t> key_of_region;
  /// Name key -> names (size() == distinct (state, county) pairs).
  std::vector<Name> names;
};

/// In-memory gazetteer of administrative districts with reverse-geocoding
/// support (exact nearest-centroid assignment — a Voronoi approximation
/// of district polygons — through a district-ownership raster) and
/// deterministic point sampling for the synthetic data generators.
///
/// Two built-in instances mirror the paper's two datasets:
///  * KoreanDistricts(): 17 first-level si/do and ~190 si/gun/gu with real
///    names and approximate centroids — the domain of the Korean dataset.
///  * WorldCities(): major cities worldwide — the domain of the
///    "Lady Gaga" search/streaming dataset.
class AdminDb {
 public:
  /// Builds a DB from a region list (ids are reassigned to indices).
  explicit AdminDb(std::vector<Region> regions, double coverage_slack_km = 25.0);

  static const AdminDb& KoreanDistricts();
  static const AdminDb& WorldCities();

  size_t size() const { return regions_.size(); }
  const Region& region(RegionId id) const;
  const std::vector<Region>& regions() const { return regions_; }

  /// Distinct first-level names, in table order.
  const std::vector<std::string>& states() const { return states_; }
  /// Regions within a state, in table order.
  std::vector<RegionId> CountiesInState(std::string_view state) const;

  /// Exact lookup by (state, county), ASCII-case-insensitive, consulting
  /// aliases. NotFound when absent.
  StatusOr<RegionId> FindCounty(std::string_view state,
                                std::string_view county) const;

  /// Lookup by county name alone; fails with AlreadyExists when the name
  /// is ambiguous across states (e.g. "Jung-gu" exists in six Korean
  /// metros) and NotFound when absent. This mirrors the ambiguity the
  /// paper flags for free-text profile locations.
  StatusOr<RegionId> FindCountyAnyState(std::string_view county) const;

  /// Reverse geocoding: the region whose centroid is nearest to `point`
  /// by ApproxDistanceKm (the lowest id on ties), when the point lies
  /// within the region's footprint plus the coverage slack. NotFound for
  /// points outside coverage (open sea, abroad). Mostly one array read
  /// (see DistrictRaster).
  StatusOr<RegionId> Locate(const LatLng& point) const;

  /// Deterministically samples a point inside the region's safe radius
  /// (guaranteed to Locate() back to the same region).
  LatLng SamplePointIn(RegionId id, Rng& rng) const;

  /// Bounding box of all centroids.
  BoundingBox Coverage() const { return coverage_; }
  /// How far past its footprint radius a region still claims a point.
  double coverage_slack_km() const { return coverage_slack_km_; }

  /// The raster behind Locate. Its cell side is a quarter of the
  /// 25th-percentile distance between a centroid and its nearest
  /// neighbour.
  const DistrictRaster& raster() const { return *raster_; }

  /// The precomputed intern-once name table (see DistrictNameTable).
  const DistrictNameTable& district_names() const { return district_names_; }

  /// Hangul spelling of a Korean first-level division ("서울" for
  /// "Seoul"), or nullptr when unknown. Static lookup, valid for any
  /// gazetteer.
  static const char* HangulStateName(std::string_view state);
  /// Hangul spelling of a Korean (state, county) pair, or nullptr.
  static const char* HangulCountyName(std::string_view state,
                                      std::string_view county);

 private:
  static std::string Key(std::string_view state, std::string_view county);

  std::vector<Region> regions_;
  std::vector<std::string> states_;
  std::unordered_map<std::string, RegionId> by_state_county_;
  std::unordered_map<std::string, std::vector<RegionId>> by_county_;
  BoundingBox coverage_;
  double coverage_slack_km_;
  /// Built once the regions are final (always engaged after construction).
  std::optional<DistrictRaster> raster_;
  DistrictNameTable district_names_;
};

namespace internal_admin_data {
/// Raw gazetteer rows (defined in admin_data.cc).
struct RawCounty {
  const char* country;
  const char* state;
  const char* county;
  double lat;
  double lng;
  double radius_km;
  const char* alias;  ///< nullptr or one alternate spelling.
};
extern const RawCounty kKoreanCounties[];
extern const size_t kKoreanCountyCount;
extern const RawCounty kWorldCities[];
extern const size_t kWorldCityCount;

/// Korean-script (hangul) names. The paper's Fig. 3 shows profile
/// locations written in Korean; these aliases let the parser resolve
/// them. County entries resolve against (state, county); state entries
/// map the hangul si/do name to its Romanized form.
struct HangulCountyAlias {
  const char* state;   ///< Romanized state the county belongs to.
  const char* county;  ///< Romanized county name.
  const char* hangul;  ///< Hangul spelling of the county.
};
struct HangulStateAlias {
  const char* state;   ///< Romanized state name.
  const char* hangul;  ///< Hangul spelling.
};
extern const HangulCountyAlias kHangulCountyAliases[];
extern const size_t kHangulCountyAliasCount;
extern const HangulStateAlias kHangulStateAliases[];
extern const size_t kHangulStateAliasCount;
}  // namespace internal_admin_data

}  // namespace stir::geo

#endif  // STIR_GEO_ADMIN_DB_H_
