#ifndef STIR_TESTS_ORACLE_PAPER_STUDY_H_
#define STIR_TESTS_ORACLE_PAPER_STUDY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geo/admin_db.h"
#include "twitter/dataset.h"

namespace stir::oracle {

/// One user of the final sample, as the paper defines it (§III.B, §IV).
struct PaperUser {
  twitter::UserId user = twitter::kInvalidUser;
  /// 1-based rank of the matched string (profile district == tweet
  /// district) in the ordered Table II list; -1 when no string matches.
  int match_rank = -1;
  /// "Top-1" .. "Top-5", "Top-6+" or "None".
  std::string group;
  /// GPS tweets that reverse-geocoded to a district.
  int64_t gps_tweets = 0;
  /// Distinct tweet districts (the number of merged strings).
  int64_t distinct_locations = 0;
};

struct PaperStudy {
  /// GPS tweets of well-defined users that fell outside every district.
  int64_t geocode_failures = 0;
  /// The final sample, in dataset user order.
  std::vector<PaperUser> users;
};

/// A deliberately naive reading of the paper's method, sharing nothing
/// with the optimised pipeline (src/core) except the gazetteer and the
/// profile-location parser: keep users whose profile location is well
/// defined, reverse-geocode each GPS tweet by brute force over every
/// district centroid, write one `user#state_p#county_p#state_t#county_t`
/// string per tweet, merge equal strings, order them by multiplicity
/// (ties by the string, ascending or with `reverse_ties` descending), and
/// classify the user by the rank of the matched string.
PaperStudy RunPaperStudy(const twitter::Dataset& dataset,
                         const geo::AdminDb& db, bool reverse_ties);

}  // namespace stir::oracle

#endif  // STIR_TESTS_ORACLE_PAPER_STUDY_H_
