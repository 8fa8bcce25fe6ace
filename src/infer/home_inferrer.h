#ifndef STIR_INFER_HOME_INFERRER_H_
#define STIR_INFER_HOME_INFERRER_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "geo/admin_db.h"
#include "infer/inference_index.h"

namespace stir::infer {

/// The pluggable inference strategies (DESIGN.md §16).
///
///   spatial — mode over the user's reverse-geocoded GPS points: the
///     district with the most geotagged tweets wins. The classical
///     baseline; systematically wrong for commuters (the workplace
///     out-tweets home) and socialites (home is buried in a flat spot
///     profile).
///   diurnal — spatial clustering with tweets posted inside the shared
///     night window (stir::IsNightHour) weighted up, per "Your Actions
///     Tell Where You Are" (PAPERS.md): people tweet from many places by
///     day but overwhelmingly from home at night. Recovers exactly the
///     archetypes spatial loses. The serving default.
///   text — fallback for users with no usable GPS: unambiguous gazetteer
///     mentions in tweet bodies ("... at Mapo-gu") vote for their
///     district. Much weaker evidence, surfaced as lower confidence.
enum class Strategy : int {
  kSpatial = 0,
  kDiurnal = 1,
  kText = 2,
};
inline constexpr int kNumStrategies = 3;

const char* StrategyToString(Strategy strategy);
/// False when `name` names no strategy ("spatial" | "diurnal" | "text").
bool StrategyFromString(std::string_view name, Strategy* out);

/// Strategy knobs, shared by serving, the CLI evaluator, and the bench
/// so one configuration means one behaviour everywhere.
struct InferParams {
  /// Strategy used when a request names none.
  Strategy default_strategy = Strategy::kDiurnal;
  /// Multiplier on night-window GPS tweets in the diurnal strategy
  /// (integer so the weighted counts stay exact and the argmax is
  /// value-determined on every platform).
  int64_t night_weight = 3;
  /// Minimum calibrated confidence to decide; below it the strategy
  /// abstains (serving answers the typed `low_confidence` envelope).
  double abstain_threshold = 0.4;
  /// Confidence shrinkage prior: the winning share is damped by
  /// n / (n + k) so a single-tweet "100% match" does not masquerade as
  /// certainty.
  int64_t shrinkage_prior = 2;
};

/// One prediction. `confidence` is the calibrated score that was
/// compared against the abstain threshold — reported on abstentions too,
/// so callers can distinguish "almost decided" from "no evidence".
struct Inference {
  /// False when the strategy abstained (confidence below threshold or no
  /// usable evidence of its kind).
  bool decided = false;
  geo::RegionId district = geo::kInvalidRegion;
  /// Winning-share confidence in [0, 1], shrunk toward 0 for thin
  /// evidence: (top weight / total weight) * (total / (total + prior)).
  double confidence = 0.0;
  /// Evidence units (GPS tweets or text votes) behind the verdict.
  int64_t evidence = 0;
  /// Night-window GPS tweets among the evidence (0 for text).
  int64_t night_evidence = 0;
};

/// One home-location inference strategy over per-user evidence. Pure and
/// stateless: Infer depends only on (evidence, params), so predictions
/// are deterministic on any thread and byte-identical across worker
/// counts. Implementations see UserEvidenceView only — profile strings
/// and ground truth are not reachable from this interface.
class HomeInferrer {
 public:
  virtual ~HomeInferrer() = default;

  virtual Strategy strategy() const = 0;
  const char* name() const { return StrategyToString(strategy()); }

  virtual Inference Infer(const UserEvidenceView& evidence) const = 0;
};

/// Builds the inferrer for `strategy` with `params`.
std::unique_ptr<HomeInferrer> MakeInferrer(Strategy strategy,
                                           const InferParams& params);

}  // namespace stir::infer

#endif  // STIR_INFER_HOME_INFERRER_H_
