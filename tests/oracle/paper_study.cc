#include "oracle/paper_study.h"

#include <algorithm>
#include <map>
#include <utility>

#include "geo/latlng.h"
#include "text/location_parser.h"

namespace stir::oracle {

namespace {

/// How far past a district's radius the gazetteer still claims a point.
constexpr double kCoverageSlackKm = 25.0;

/// Reverse geocoding, literally: the district with the nearest centroid,
/// provided the point lies within that district's radius plus the
/// coverage slack. Null when the point is invalid or outside coverage.
const geo::Region* NearestDistrict(const geo::AdminDb& db,
                                   const geo::LatLng& point) {
  if (!point.IsValid()) return nullptr;
  const geo::Region* best = nullptr;
  double best_km = 0.0;
  for (const geo::Region& region : db.regions()) {
    const double km = geo::ApproxDistanceKm(point, region.centroid);
    if (best == nullptr || km < best_km) {
      best = &region;
      best_km = km;
    }
  }
  if (best == nullptr || best_km > best->radius_km + kCoverageSlackKm) {
    return nullptr;
  }
  return best;
}

std::string LocationString(twitter::UserId user, const geo::Region& profile,
                           const geo::Region& tweet) {
  return std::to_string(user) + "#" + profile.state + "#" + profile.county +
         "#" + tweet.state + "#" + tweet.county;
}

std::string GroupOfRank(int rank) {
  if (rank < 1) return "None";
  if (rank <= 5) return "Top-" + std::to_string(rank);
  return "Top-6+";
}

}  // namespace

PaperStudy RunPaperStudy(const twitter::Dataset& dataset,
                         const geo::AdminDb& db, bool reverse_ties) {
  const text::LocationParser parser(&db);
  PaperStudy study;
  for (const twitter::User& user : dataset.users()) {
    // Gate 1: a well-defined profile location.
    const text::ParsedLocation profile = parser.Parse(user.profile_location);
    if (profile.quality != text::LocationQuality::kWellDefined) continue;
    const geo::Region& home = db.region(profile.region);

    // Table I: one location string per geocoded GPS tweet, merged by
    // counting equal strings.
    std::map<std::string, int64_t> counts;
    int64_t geocoded = 0;
    for (size_t index : dataset.TweetIndicesOf(user.id)) {
      const twitter::Tweet& tweet = dataset.tweets()[index];
      if (!tweet.gps.has_value()) continue;
      const geo::Region* district = NearestDistrict(db, *tweet.gps);
      if (district == nullptr) {
        ++study.geocode_failures;
        continue;
      }
      ++geocoded;
      ++counts[LocationString(user.id, home, *district)];
    }
    // Gate 2: at least one geocoded GPS tweet.
    if (geocoded == 0) continue;

    // Table II: order by multiplicity, ties broken by the string itself.
    std::vector<std::pair<std::string, int64_t>> ordered(counts.begin(),
                                                         counts.end());
    std::sort(ordered.begin(), ordered.end(),
              [&](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return reverse_ties ? a.first > b.first : a.first < b.first;
              });
    const std::string matched = LocationString(user.id, home, home);
    int rank = -1;
    for (size_t i = 0; i < ordered.size(); ++i) {
      if (ordered[i].first == matched) {
        rank = static_cast<int>(i) + 1;
        break;
      }
    }

    PaperUser out;
    out.user = user.id;
    out.match_rank = rank;
    out.group = GroupOfRank(rank);
    out.gps_tweets = geocoded;
    out.distinct_locations = static_cast<int64_t>(ordered.size());
    study.users.push_back(std::move(out));
  }
  return study;
}

}  // namespace stir::oracle
