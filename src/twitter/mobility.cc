#include "twitter/mobility.h"

#include <algorithm>
#include <cmath>

#include "common/clock.h"
#include "common/logging.h"

namespace stir::twitter {

const char* ArchetypeToString(Archetype archetype) {
  switch (archetype) {
    case Archetype::kHomebody:
      return "homebody";
    case Archetype::kCommuter:
      return "commuter";
    case Archetype::kSocialite:
      return "socialite";
    case Archetype::kRelocated:
      return "relocated";
    case Archetype::kGeotagSelective:
      return "geotag-selective";
  }
  return "unknown";
}

MobilityModel::MobilityModel(const geo::AdminDb* db,
                             MobilityModelOptions options)
    : db_(db), options_(options) {
  STIR_CHECK(db != nullptr);
  // Population prior: radius^1.2 — larger districts hold more residents,
  // damped because metro gu are small but dense.
  home_weights_.reserve(db_->size());
  for (const geo::Region& region : db_->regions()) {
    home_weights_.push_back(std::pow(region.radius_km, 1.2));
  }
  for (double w : home_weights_) home_weight_total_ += w;

  spot_candidates_.resize(db_->size());
  for (const geo::Region& center : db_->regions()) {
    std::vector<SpotCandidate>& candidates =
        spot_candidates_[static_cast<size_t>(center.id)];
    for (const geo::Region& region : db_->regions()) {
      if (region.id == center.id) continue;
      double d = geo::ApproxDistanceKm(center.centroid, region.centroid);
      if (d > options_.activity_radius_km) continue;
      candidates.push_back(
          {region.id, std::exp(-d / options_.distance_decay_km)});
    }
  }
}

geo::RegionId MobilityModel::SampleHomeRegion(Rng& rng) const {
  // Linear scan over cumulative weights; called once per user.
  double u = rng.Uniform() * home_weight_total_;
  for (size_t i = 0; i < home_weights_.size(); ++i) {
    u -= home_weights_[i];
    if (u <= 0.0) return static_cast<geo::RegionId>(i);
  }
  return static_cast<geo::RegionId>(home_weights_.size() - 1);
}

std::vector<geo::RegionId> MobilityModel::SampleNearbySpots(
    geo::RegionId center, int count, geo::RegionId exclude, Rng& rng) const {
  const std::vector<SpotCandidate>& table =
      spot_candidates_[static_cast<size_t>(center)];
  std::vector<SpotCandidate> candidates;
  candidates.reserve(table.size());
  for (const SpotCandidate& candidate : table) {
    if (candidate.region != exclude) candidates.push_back(candidate);
  }
  std::vector<geo::RegionId> picked;
  for (int k = 0; k < count && !candidates.empty(); ++k) {
    double total = 0.0;
    for (const SpotCandidate& candidate : candidates) total += candidate.weight;
    if (total <= 0.0) break;
    double u = rng.Uniform() * total;
    size_t chosen = candidates.size() - 1;
    for (size_t i = 0; i < candidates.size(); ++i) {
      u -= candidates[i].weight;
      if (u <= 0.0) {
        chosen = i;
        break;
      }
    }
    picked.push_back(candidates[chosen].region);
    candidates.erase(candidates.begin() + static_cast<ptrdiff_t>(chosen));
  }
  return picked;
}

geo::RegionId MobilityModel::SampleFarRegion(geo::RegionId from,
                                             double min_km, Rng& rng) const {
  const geo::LatLng origin = db_->region(from).centroid;
  for (int attempt = 0; attempt < 128; ++attempt) {
    auto candidate = static_cast<geo::RegionId>(
        rng.UniformInt(0, static_cast<int64_t>(db_->size()) - 1));
    if (candidate == from) continue;
    if (geo::ApproxDistanceKm(origin, db_->region(candidate).centroid) >=
        min_km) {
      return candidate;
    }
  }
  // Dense small gazetteers may lack a far region; fall back to any other.
  auto fallback = static_cast<geo::RegionId>(
      rng.UniformInt(0, static_cast<int64_t>(db_->size()) - 1));
  return fallback == from
             ? static_cast<geo::RegionId>((fallback + 1) %
                                          static_cast<int64_t>(db_->size()))
             : fallback;
}

namespace {

/// Appends `regions` as spots sharing `budget` with 1/(i+1)^2 decay,
/// shares normalized so they sum to exactly `budget` (keeping the
/// preceding spots' relative order intact).
void AppendDecayingSpots(const std::vector<geo::RegionId>& regions,
                         double budget,
                         std::vector<ActivitySpot>& spots) {
  if (regions.empty() || budget <= 0.0) return;
  double z = 0.0;
  for (size_t i = 0; i < regions.size(); ++i) {
    z += 1.0 / static_cast<double>((i + 1) * (i + 1));
  }
  for (size_t i = 0; i < regions.size(); ++i) {
    double share = 1.0 / static_cast<double>((i + 1) * (i + 1)) / z;
    spots.push_back({regions[i], budget * share});
  }
}

/// Normalizes weights to sum 1 and sorts spots descending by weight.
void FinishSpots(std::vector<ActivitySpot>& spots) {
  double total = 0.0;
  for (const ActivitySpot& s : spots) total += s.weight;
  STIR_CHECK_GT(total, 0.0);
  for (ActivitySpot& s : spots) s.weight /= total;
  std::sort(spots.begin(), spots.end(),
            [](const ActivitySpot& a, const ActivitySpot& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.region < b.region;
            });
}

}  // namespace

MobilityProfile MobilityModel::GenerateProfile(UserId user, bool is_geotagger,
                                               Rng& rng) const {
  MobilityProfile profile;
  profile.user = user;
  profile.home = SampleHomeRegion(rng);
  profile.claimed = profile.home;

  // Archetype draw.
  double mix[kNumArchetypes] = {options_.frac_homebody, options_.frac_commuter,
                                options_.frac_socialite,
                                options_.frac_relocated,
                                options_.frac_selective};
  double total = 0.0;
  for (double m : mix) total += m;
  double u = rng.Uniform() * total;
  int archetype_index = kNumArchetypes - 1;
  for (int i = 0; i < kNumArchetypes; ++i) {
    u -= mix[i];
    if (u <= 0.0) {
      archetype_index = i;
      break;
    }
  }
  profile.archetype = static_cast<Archetype>(archetype_index);

  if (is_geotagger) {
    profile.geotag_rate =
        rng.Uniform(options_.geotag_rate_min, options_.geotag_rate_max);
  } else {
    profile.geotag_rate = 0.0;
    // Selectivity is unobservable without GPS; keep the archetype for
    // ground-truth bookkeeping anyway.
  }

  switch (profile.archetype) {
    case Archetype::kHomebody: {
      // Home-dominant: home 55-80%, 2-5 nearby spots for the rest.
      int extras = static_cast<int>(rng.UniformInt(2, 5));
      std::vector<geo::RegionId> nearby =
          SampleNearbySpots(profile.home, extras, geo::kInvalidRegion, rng);
      double home_weight = rng.Uniform(0.55, 0.80);
      profile.spots.push_back({profile.home, home_weight});
      // Largest extra share is (1-0.80)=0.2 .. (1-0.55)=0.45 < home.
      AppendDecayingSpots(nearby, 1.0 - home_weight, profile.spots);
      break;
    }
    case Archetype::kCommuter: {
      // Work district dominates; home second; 1-3 lesser spots.
      std::vector<geo::RegionId> work =
          SampleNearbySpots(profile.home, 1, geo::kInvalidRegion, rng);
      geo::RegionId work_region = work.empty()
                                      ? SampleFarRegion(profile.home, 0, rng)
                                      : work.front();
      double work_weight = rng.Uniform(0.40, 0.55);
      double home_weight = rng.Uniform(0.22, 0.35);
      profile.spots.push_back({work_region, work_weight});
      profile.spots.push_back({profile.home, home_weight});
      int extras = static_cast<int>(rng.UniformInt(1, 3));
      std::vector<geo::RegionId> nearby =
          SampleNearbySpots(profile.home, extras, work_region, rng);
      // Cap the extras' budget below home so the work > home > extras
      // ordering is structural, not sampling luck.
      double extras_budget =
          std::min(1.0 - work_weight - home_weight, home_weight * 0.8);
      AppendDecayingSpots(nearby, extras_budget, profile.spots);
      break;
    }
    case Archetype::kSocialite: {
      // Many spots, flat-ish Zipf; home buried at a random rank.
      int count = static_cast<int>(rng.UniformInt(5, 9));
      std::vector<geo::RegionId> nearby =
          SampleNearbySpots(profile.home, count - 1, geo::kInvalidRegion, rng);
      std::vector<geo::RegionId> all = {profile.home};
      all.insert(all.end(), nearby.begin(), nearby.end());
      rng.Shuffle(all);
      for (size_t i = 0; i < all.size(); ++i) {
        profile.spots.push_back(
            {all[i], std::pow(static_cast<double>(i + 1), -0.7)});
      }
      break;
    }
    case Archetype::kRelocated: {
      // Claims the old hometown, lives elsewhere with low mobility
      // ("they may stick in a specific place ... their mobility range may
      // not be wide", §IV): 2-3 spots around the actual home.
      profile.claimed =
          SampleFarRegion(profile.home, options_.relocation_min_km, rng);
      double home_weight = rng.Uniform(0.60, 0.85);
      profile.spots.push_back({profile.home, home_weight});
      int extras = static_cast<int>(rng.UniformInt(1, 3));
      std::vector<geo::RegionId> nearby =
          SampleNearbySpots(profile.home, extras, profile.claimed, rng);
      AppendDecayingSpots(nearby, 1.0 - home_weight, profile.spots);
      break;
    }
    case Archetype::kGeotagSelective: {
      // Home-centric life, but GPS only ever attached away from home; the
      // observable districts are the 2-3 away spots.
      profile.geotag_away_only = true;
      double home_weight = rng.Uniform(0.55, 0.80);
      profile.spots.push_back({profile.home, home_weight});
      int extras = static_cast<int>(rng.UniformInt(2, 3));
      std::vector<geo::RegionId> nearby =
          SampleNearbySpots(profile.home, extras, geo::kInvalidRegion, rng);
      AppendDecayingSpots(nearby, 1.0 - home_weight, profile.spots);
      break;
    }
  }

  FinishSpots(profile.spots);
  return profile;
}

geo::RegionId MobilityModel::SampleTweetRegion(const MobilityProfile& profile,
                                               Rng& rng) const {
  STIR_CHECK(!profile.spots.empty());
  double u = rng.Uniform();
  for (const ActivitySpot& spot : profile.spots) {
    u -= spot.weight;
    if (u <= 0.0) return spot.region;
  }
  return profile.spots.back().region;
}

geo::RegionId MobilityModel::SampleTweetRegion(const MobilityProfile& profile,
                                               int hour, Rng& rng) const {
  // The bias gate comes first so a bias-free model never draws the extra
  // Bernoulli: the random sequence — and therefore every corpus generated
  // before this overload existed — is bit-identical.
  if (options_.night_home_bias > 0.0 && IsNightHour(hour) &&
      rng.Bernoulli(options_.night_home_bias)) {
    return profile.home;
  }
  return SampleTweetRegion(profile, rng);
}

bool MobilityModel::SampleGeotag(const MobilityProfile& profile,
                                 geo::RegionId region, Rng& rng) const {
  if (profile.geotag_rate <= 0.0) return false;
  if (profile.geotag_away_only && region == profile.home) return false;
  return rng.Bernoulli(profile.geotag_rate);
}

}  // namespace stir::twitter
