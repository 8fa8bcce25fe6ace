// Quickstart: generate a synthetic Korean Twitter corpus, run the paper's
// correlation study end-to-end, and print the §III.B funnel, the Table II
// strings of a sample user, and the Fig. 6 / Fig. 7 group table.
//
// Usage: quickstart [scale]   (scale 1.0 = the paper's 52,200 users)

#include <cstdio>
#include <cstdlib>

#include "core/reliability.h"
#include "core/study.h"
#include "geo/admin_db.h"
#include "twitter/generator.h"

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.05;
  if (scale <= 0.0) scale = 0.05;

  const stir::geo::AdminDb& db = stir::geo::AdminDb::KoreanDistricts();
  std::printf("gazetteer: %zu districts in %zu first-level divisions\n",
              db.size(), db.states().size());

  // 1. Synthesize the corpus (crawl simulation + mobility + noisy
  //    profile locations + sparse GPS).
  stir::twitter::DatasetGenerator generator(
      &db, stir::twitter::DatasetGenerator::KoreanConfig(scale));
  stir::twitter::GeneratedData data = generator.Generate();
  std::printf("generated %zu users, %lld tweets (%lld materialized, %lld "
              "GPS-tagged); crawl used %lld API requests\n\n",
              data.dataset.users().size(),
              static_cast<long long>(data.dataset.total_tweet_count()),
              static_cast<long long>(data.dataset.tweets().size()),
              static_cast<long long>(data.dataset.gps_tweet_count()),
              static_cast<long long>(data.crawl_requests));

  // 2. Run the study: refinement funnel -> text-based grouping -> Top-k.
  stir::core::CorrelationStudy study(&db);
  stir::core::StudyResult result = study.Run(data.dataset);

  std::printf("=== refinement funnel (paper section III.B) ===\n%s\n",
              result.FunnelString().c_str());

  // 3. Show one user's merged & ordered location strings (Table II).
  for (const stir::core::UserGrouping& grouping : result.groupings) {
    if (grouping.ordered.size() >= 3 && grouping.match_rank == 1) {
      std::printf("=== example merged strings (paper Table II), user %lld "
                  "=> %s ===\n",
                  static_cast<long long>(grouping.user),
                  stir::core::TopKGroupToString(grouping.group));
      for (const auto& row : grouping.ordered) {
        std::printf(
            "  %s\n",
            stir::core::RenderTableRow(grouping, row, db).ToString().c_str());
      }
      std::printf("\n");
      break;
    }
  }

  // 4. Group table (Fig. 6 + Fig. 7 + tweets-per-group).
  std::printf("=== Top-k groups (paper Fig. 6 / Fig. 7) ===\n%s\n",
              result.GroupTableString().c_str());

  // 5. Reliability weights — the paper's proposed application.
  stir::core::ReliabilityModel reliability =
      stir::core::ReliabilityModel::FromGroupings(result.groupings);
  std::printf("=== reliability of the profile location as a tweet-location "
              "proxy ===\n");
  std::printf("global weight: %.3f\n", reliability.global_weight());
  for (int g = 0; g < stir::core::kNumTopKGroups; ++g) {
    auto group = static_cast<stir::core::TopKGroup>(g);
    std::printf("  %-7s weight: %.3f\n",
                stir::core::TopKGroupToString(group),
                reliability.GroupWeight(group));
  }
  return 0;
}
