#include "core/concentration.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "stats/correlation.h"

namespace stir::core {

ConcentrationMetrics ComputeConcentration(const UserGrouping& grouping) {
  ConcentrationMetrics metrics;
  STIR_CHECK_GT(grouping.gps_tweet_count, 0);
  double total = static_cast<double>(grouping.gps_tweet_count);
  size_t k = grouping.ordered.size();
  STIR_CHECK_GT(k, 0u);

  double entropy = 0.0;
  int64_t top_count = 0;
  for (const DistrictCount& row : grouping.ordered) {
    double p = static_cast<double>(row.count) / total;
    if (p > 0.0) entropy -= p * std::log2(p);
    top_count = std::max(top_count, row.count);
  }
  metrics.entropy_bits = entropy;
  metrics.normalized_entropy =
      k > 1 ? entropy / std::log2(static_cast<double>(k)) : 0.0;
  metrics.top_share = static_cast<double>(top_count) / total;
  metrics.matched_share =
      static_cast<double>(grouping.matched_tweet_count) / total;

  // Gini over the sorted (ascending) counts.
  std::vector<double> counts;
  counts.reserve(k);
  for (const DistrictCount& row : grouping.ordered) {
    counts.push_back(static_cast<double>(row.count));
  }
  std::sort(counts.begin(), counts.end());
  double cum_weighted = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cum_weighted += (2.0 * static_cast<double>(i + 1) -
                     static_cast<double>(counts.size()) - 1.0) *
                    counts[i];
  }
  metrics.gini = counts.size() > 1
                     ? cum_weighted /
                           (static_cast<double>(counts.size()) * total)
                     : 0.0;
  return metrics;
}

StatusOr<ConcentrationStudyResult> AnalyzeConcentration(
    const std::vector<UserGrouping>& groupings) {
  if (groupings.size() < 3) {
    return Status::InvalidArgument(
        "need at least 3 classified users for concentration analysis");
  }
  ConcentrationStudyResult result;
  double entropy_sum[kNumTopKGroups] = {};
  double share_sum[kNumTopKGroups] = {};
  int64_t counts[kNumTopKGroups] = {};
  std::vector<double> ranks, entropies, shares, neg_ranks;
  for (const UserGrouping& grouping : groupings) {
    ConcentrationMetrics metrics = ComputeConcentration(grouping);
    int g = static_cast<int>(grouping.group);
    entropy_sum[g] += metrics.entropy_bits;
    share_sum[g] += metrics.matched_share;
    ++counts[g];
    // Rank-vs-entropy is only meaningful for matched users: None users
    // have no rank, and many of them (relocated, low mobility) tweet
    // from very few districts, which would spuriously dilute the
    // correlation. Matched share vs rank keeps everyone, with None at
    // an effective rank one past the district count.
    if (grouping.match_rank > 0) {
      ranks.push_back(static_cast<double>(grouping.match_rank));
      entropies.push_back(metrics.entropy_bits);
    }
    double effective_rank =
        grouping.match_rank > 0
            ? static_cast<double>(grouping.match_rank)
            : static_cast<double>(grouping.ordered.size() + 1);
    neg_ranks.push_back(-effective_rank);
    shares.push_back(metrics.matched_share);
  }
  for (int g = 0; g < kNumTopKGroups; ++g) {
    if (counts[g] > 0) {
      result.mean_entropy[g] =
          entropy_sum[g] / static_cast<double>(counts[g]);
      result.mean_matched_share[g] =
          share_sum[g] / static_cast<double>(counts[g]);
    }
  }
  if (ranks.size() < 3) {
    return Status::InvalidArgument(
        "need at least 3 matched users for the rank-entropy correlation");
  }
  STIR_ASSIGN_OR_RETURN(result.rank_entropy_spearman,
                        stats::SpearmanCorrelation(ranks, entropies));
  STIR_ASSIGN_OR_RETURN(result.share_rank_spearman,
                        stats::SpearmanCorrelation(shares, neg_ranks));
  return result;
}

}  // namespace stir::core
