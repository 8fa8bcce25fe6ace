#include "infer/home_inferrer.h"

#include <algorithm>

#include "common/logging.h"

namespace stir::infer {

const char* StrategyToString(Strategy strategy) {
  switch (strategy) {
    case Strategy::kSpatial:
      return "spatial";
    case Strategy::kDiurnal:
      return "diurnal";
    case Strategy::kText:
      return "text";
  }
  return "unknown";
}

bool StrategyFromString(std::string_view name, Strategy* out) {
  STIR_CHECK(out != nullptr);
  if (name == "spatial") {
    *out = Strategy::kSpatial;
  } else if (name == "diurnal") {
    *out = Strategy::kDiurnal;
  } else if (name == "text") {
    *out = Strategy::kText;
  } else {
    return false;
  }
  return true;
}

namespace {

/// Shared argmax core: every strategy reduces to "weigh each district,
/// pick the heaviest, calibrate by share and evidence volume". Weights
/// are exact integers and ties break toward the smaller region id, so
/// the verdict is value-determined — identical across worker counts,
/// corpus formats, and ingest orders.
template <typename WeightFn>
Inference InferByWeight(const UserEvidenceView& evidence,
                        const InferParams& params, WeightFn&& weight_of) {
  Inference result;
  int64_t total = 0;
  int64_t top = 0;
  const RegionEvidence* winner = nullptr;
  for (const RegionEvidence& region : evidence.regions) {
    int64_t weight = weight_of(region);
    if (weight <= 0) continue;
    total += weight;
    // Regions are ascending by id, so strict > keeps the smallest id on
    // ties.
    if (weight > top) {
      top = weight;
      winner = &region;
    }
  }
  if (winner == nullptr || total <= 0) return result;  // no usable evidence

  double share = static_cast<double>(top) / static_cast<double>(total);
  double shrink = static_cast<double>(total) /
                  static_cast<double>(total + params.shrinkage_prior);
  result.confidence = share * shrink;
  result.district = winner->region;
  result.evidence = total;
  result.decided = result.confidence >= params.abstain_threshold;
  return result;
}

/// Night-window GPS tweets in the winning district (reported alongside
/// GPS verdicts so callers can see how much of the evidence was the
/// at-home signal).
int64_t NightEvidence(const UserEvidenceView& evidence,
                      const Inference& result) {
  if (result.district == geo::kInvalidRegion) return 0;
  for (const RegionEvidence& region : evidence.regions) {
    if (region.region == result.district) return region.night_gps_tweets;
  }
  return 0;
}

class SpatialInferrer final : public HomeInferrer {
 public:
  explicit SpatialInferrer(const InferParams& params) : params_(params) {}
  Strategy strategy() const override { return Strategy::kSpatial; }

  Inference Infer(const UserEvidenceView& evidence) const override {
    Inference result =
        InferByWeight(evidence, params_, [](const RegionEvidence& region) {
          return region.gps_tweets;
        });
    result.night_evidence = NightEvidence(evidence, result);
    return result;
  }

 private:
  InferParams params_;
};

class DiurnalInferrer final : public HomeInferrer {
 public:
  explicit DiurnalInferrer(const InferParams& params) : params_(params) {}
  Strategy strategy() const override { return Strategy::kDiurnal; }

  Inference Infer(const UserEvidenceView& evidence) const override {
    // Each night tweet counts night_weight times: weight =
    // gps + (night_weight - 1) * night. With weight 1 this is exactly
    // the spatial strategy.
    const int64_t extra = std::max<int64_t>(params_.night_weight, 1) - 1;
    Inference result = InferByWeight(
        evidence, params_, [extra](const RegionEvidence& region) {
          return region.gps_tweets + extra * region.night_gps_tweets;
        });
    result.night_evidence = NightEvidence(evidence, result);
    return result;
  }

 private:
  InferParams params_;
};

class TextInferrer final : public HomeInferrer {
 public:
  explicit TextInferrer(const InferParams& params) : params_(params) {}
  Strategy strategy() const override { return Strategy::kText; }

  Inference Infer(const UserEvidenceView& evidence) const override {
    return InferByWeight(evidence, params_,
                         [](const RegionEvidence& region) {
                           return region.text_votes;
                         });
  }

 private:
  InferParams params_;
};

}  // namespace

std::unique_ptr<HomeInferrer> MakeInferrer(Strategy strategy,
                                           const InferParams& params) {
  switch (strategy) {
    case Strategy::kSpatial:
      return std::make_unique<SpatialInferrer>(params);
    case Strategy::kDiurnal:
      return std::make_unique<DiurnalInferrer>(params);
    case Strategy::kText:
      return std::make_unique<TextInferrer>(params);
  }
  STIR_CHECK(false) << "unknown strategy "
                    << static_cast<int>(strategy);
  return nullptr;
}

}  // namespace stir::infer
