#ifndef STIR_TWITTER_MOBILITY_H_
#define STIR_TWITTER_MOBILITY_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "geo/admin_db.h"
#include "twitter/model.h"

namespace stir::twitter {

/// Ground-truth behavioural archetypes. The mix of archetypes is the
/// generative knob behind the paper's findings: Top-1/Top-2 users are
/// home-centric, the None group (~30%) is users whose profile district
/// never appears in their geotagged tweets ("they may provide their
/// hometown location for the profile, but they usually stay outside",
/// §IV).
enum class Archetype : int {
  /// Most activity in the home district; a few nearby spots.
  kHomebody = 0,
  /// Workplace district dominates; home is the 2nd/3rd spot.
  kCommuter = 1,
  /// Many spots with a flat weight profile; home ranks low.
  kSocialite = 2,
  /// Profile claims the old hometown; actual activity is elsewhere
  /// entirely. Lands in the None group.
  kRelocated = 3,
  /// Lives at the claimed district but only geotags when away from home
  /// (privacy habit). Also lands in None, with few observed districts.
  kGeotagSelective = 4,
};

const char* ArchetypeToString(Archetype archetype);
inline constexpr int kNumArchetypes = 5;

/// One recurring tweeting district with its visit share.
struct ActivitySpot {
  geo::RegionId region = geo::kInvalidRegion;
  double weight = 0.0;
};

/// Ground truth for one user. Never read by the analysis pipeline — only
/// by generators and by evaluation benches that compare recovered groups
/// against the truth.
struct MobilityProfile {
  UserId user = kInvalidUser;
  Archetype archetype = Archetype::kHomebody;
  /// Actual residence district.
  geo::RegionId home = geo::kInvalidRegion;
  /// District the user would write into the profile (== home except for
  /// kRelocated, where it is the old hometown).
  geo::RegionId claimed = geo::kInvalidRegion;
  /// Tweeting districts, weights sum to 1, descending.
  std::vector<ActivitySpot> spots;
  /// Probability a tweet carries GPS; 0 for non-geotaggers.
  double geotag_rate = 0.0;
  /// kGeotagSelective behaviour: suppress GPS in the home district.
  bool geotag_away_only = false;
};

/// Archetype mix and spot-geometry parameters.
struct MobilityModelOptions {
  /// Archetype probabilities for geotagging users (must sum to ~1).
  /// Calibrated so the Top-k group shares match the paper's Fig. 7
  /// (Top-1+Top-2 ~ 50%, None ~ 30%).
  double frac_homebody = 0.44;
  double frac_commuter = 0.12;
  double frac_socialite = 0.22;
  double frac_relocated = 0.15;
  double frac_selective = 0.07;

  /// Geotag rate range for geotagging users. Calibrated so the Korean
  /// preset yields ~25k GPS tweets out of ~11M (the paper's ratio).
  double geotag_rate_min = 0.04;
  double geotag_rate_max = 0.14;

  /// Radius within which everyday activity spots are drawn, and the
  /// exponential decay scale of their attractiveness.
  double activity_radius_km = 70.0;
  double distance_decay_km = 22.0;

  /// Minimum distance of a kRelocated user's claimed old hometown from
  /// the actual home.
  double relocation_min_km = 60.0;

  /// Probability that a tweet sampled during the shared night window
  /// (stir::IsNightHour) is redirected to the home district regardless of
  /// the spot weights — the diurnal signal home-inference strategies
  /// exploit ("Your Actions Tell Where You Are", PAPERS.md). 0 — the
  /// default — disables the redirect entirely: the hour-aware
  /// SampleTweetRegion overload then draws exactly the random sequence of
  /// the hour-blind one, so every previously generated corpus stays
  /// byte-identical. Enable via `stir_cli generate --night-home-bias`.
  double night_home_bias = 0.0;
};

/// Generates ground-truth mobility profiles over an AdminDb and samples
/// tweet districts from them.
class MobilityModel {
 public:
  /// `db` must outlive the model.
  MobilityModel(const geo::AdminDb* db, MobilityModelOptions options);

  /// Draws a full profile. `is_geotagger` selects whether the user ever
  /// attaches GPS (non-geotaggers never enter the paper's final sample).
  MobilityProfile GenerateProfile(UserId user, bool is_geotagger,
                                  Rng& rng) const;

  /// Samples the district of one tweet according to the spot weights.
  geo::RegionId SampleTweetRegion(const MobilityProfile& profile,
                                  Rng& rng) const;

  /// Hour-aware overload: with night_home_bias > 0 and `hour` inside the
  /// night window, the tweet is redirected home with that probability
  /// (one extra Bernoulli draw); otherwise it defers to the hour-blind
  /// sampler above, drawing the identical random sequence.
  geo::RegionId SampleTweetRegion(const MobilityProfile& profile, int hour,
                                  Rng& rng) const;

  /// Decides whether a tweet posted from `region` carries GPS.
  bool SampleGeotag(const MobilityProfile& profile, geo::RegionId region,
                    Rng& rng) const;

  const geo::AdminDb& db() const { return *db_; }
  const MobilityModelOptions& options() const { return options_; }

 private:
  /// Home-district population prior (larger-radius regions attract more
  /// residents; metro gu are dense, so area is damped by an exponent).
  geo::RegionId SampleHomeRegion(Rng& rng) const;
  /// Draws `count` distinct spots near `center` (excluding `exclude`),
  /// distance-decayed.
  std::vector<geo::RegionId> SampleNearbySpots(geo::RegionId center,
                                               int count,
                                               geo::RegionId exclude,
                                               Rng& rng) const;
  geo::RegionId SampleFarRegion(geo::RegionId from, double min_km,
                                Rng& rng) const;

  /// A district within activity_radius_km of a center, with its
  /// exp(-distance / distance_decay_km) attractiveness.
  struct SpotCandidate {
    geo::RegionId region = geo::kInvalidRegion;
    double weight = 0.0;
  };

  const geo::AdminDb* db_;
  MobilityModelOptions options_;
  std::vector<double> home_weights_;
  double home_weight_total_ = 0.0;
  /// Per center district: every other district in its activity radius,
  /// in region order. Built once, so a draw never recomputes distances.
  std::vector<std::vector<SpotCandidate>> spot_candidates_;
};

}  // namespace stir::twitter

#endif  // STIR_TWITTER_MOBILITY_H_
