#include "infer/eval.h"

#include <algorithm>
#include <map>
#include <optional>

#include "common/logging.h"
#include "common/string_util.h"

namespace stir::infer {

namespace {

double Ratio(int64_t numerator, int64_t denominator) {
  if (denominator <= 0) return 0.0;
  return static_cast<double>(numerator) / static_cast<double>(denominator);
}

}  // namespace

double StrategyEval::AccuracyDistrict() const {
  return Ratio(correct_district, decided);
}
double StrategyEval::AccuracyProvince() const {
  return Ratio(correct_province, decided);
}
double StrategyEval::GpsRichAccuracyDistrict() const {
  return Ratio(gps_rich_correct_district, gps_rich_decided);
}
double StrategyEval::GpsRichAccuracyProvince() const {
  return Ratio(gps_rich_correct_province, gps_rich_decided);
}
double StrategyEval::AbstainRate() const { return Ratio(abstained, users); }

StrategyEval EvaluateStrategy(const InferenceIndex& index,
                              const std::vector<io::TruthRecord>& truth,
                              Strategy strategy, const InferParams& params,
                              int64_t min_gps, int64_t max_confusion_pairs) {
  STIR_CHECK(index.db() != nullptr);
  StrategyEval eval;
  eval.strategy = strategy;
  eval.min_gps = min_gps;

  std::unique_ptr<HomeInferrer> inferrer = MakeInferrer(strategy, params);
  // std::map keeps the confusion tally ordered, so equal-count pairs
  // tie-break lexicographically without a second sort key.
  std::map<std::pair<std::string, std::string>, int64_t> confusion;

  for (const io::TruthRecord& record : truth) {
    const std::optional<UserEvidenceView> evidence =
        index.FindUser(record.user);
    if (!evidence) continue;  // tweets all unsampled; unscoreable
    ++eval.users;
    const bool gps_rich = evidence->gps_tweets >= min_gps;
    if (gps_rich) ++eval.gps_rich_users;

    Inference inference = inferrer->Infer(*evidence);
    if (!inference.decided) {
      ++eval.abstained;
      continue;
    }
    ++eval.decided;
    if (gps_rich) ++eval.gps_rich_decided;

    const geo::Region& predicted = index.db()->region(inference.district);
    const bool province_ok = predicted.state == record.home_state;
    const bool district_ok = province_ok && predicted.county ==
                                                record.home_county;
    if (province_ok) {
      ++eval.correct_province;
      if (gps_rich) ++eval.gps_rich_correct_province;
    }
    if (district_ok) {
      ++eval.correct_district;
      if (gps_rich) ++eval.gps_rich_correct_district;
    } else {
      ++confusion[{StrFormat("%s/%s", record.home_state.c_str(),
                             record.home_county.c_str()),
                   StrFormat("%s/%s", predicted.state.c_str(),
                             predicted.county.c_str())}];
    }
  }

  std::vector<ConfusionPair> pairs;
  pairs.reserve(confusion.size());
  for (const auto& [key, count] : confusion) {
    pairs.push_back({key.first, key.second, count});
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const ConfusionPair& a, const ConfusionPair& b) {
                     return a.count > b.count;
                   });
  if (static_cast<int64_t>(pairs.size()) > max_confusion_pairs) {
    pairs.resize(static_cast<size_t>(max_confusion_pairs));
  }
  eval.confusion = std::move(pairs);
  return eval;
}

std::string RenderEvalReport(const std::vector<StrategyEval>& evals) {
  std::string out;
  for (const StrategyEval& eval : evals) {
    out += StrFormat("strategy %s\n", StrategyToString(eval.strategy));
    out += StrFormat(
        "  users evaluated      %lld (gps-rich >=%lld gps: %lld)\n",
        static_cast<long long>(eval.users),
        static_cast<long long>(eval.min_gps),
        static_cast<long long>(eval.gps_rich_users));
    out += StrFormat("  decided / abstained  %lld / %lld (abstain rate %.4f)\n",
                     static_cast<long long>(eval.decided),
                     static_cast<long long>(eval.abstained),
                     eval.AbstainRate());
    out += StrFormat("  accuracy@district    %.4f (province %.4f)\n",
                     eval.AccuracyDistrict(), eval.AccuracyProvince());
    out += StrFormat("  gps-rich accuracy    %.4f (province %.4f)\n",
                     eval.GpsRichAccuracyDistrict(),
                     eval.GpsRichAccuracyProvince());
    if (!eval.confusion.empty()) {
      out += "  top confusion (actual -> predicted)\n";
      for (const ConfusionPair& pair : eval.confusion) {
        out += StrFormat("    %-28s -> %-28s %lld\n", pair.actual.c_str(),
                         pair.predicted.c_str(),
                         static_cast<long long>(pair.count));
      }
    }
  }
  return out;
}

}  // namespace stir::infer
