#ifndef STIR_CORE_LOCATION_STRING_H_
#define STIR_CORE_LOCATION_STRING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "twitter/model.h"

namespace stir::core {

/// One per-tweet location record, the paper's Table I row:
/// "user id # state in profile # county in profile # state in tweet #
///  county in tweet" with '#' as the delimiter.
struct LocationRecord {
  twitter::UserId user = twitter::kInvalidUser;
  std::string profile_state;
  std::string profile_county;
  std::string tweet_state;
  std::string tweet_county;

  /// True when the tweet was posted from the profile district.
  bool IsMatched() const {
    return profile_state == tweet_state && profile_county == tweet_county;
  }

  /// Table I rendering: "123#Seoul#Yangcheon-gu#Seoul#Jung-gu".
  std::string ToString() const;

  /// Parses a Table I string. Fails unless exactly 5 '#'-fields.
  static StatusOr<LocationRecord> FromString(std::string_view text);
};

bool operator==(const LocationRecord& a, const LocationRecord& b);

/// A merged row of the paper's Table II: a distinct record with its
/// multiplicity, e.g. "123#Seoul#...#Yangcheon-gu (4)".
struct MergedLocationString {
  LocationRecord record;
  int64_t count = 0;

  std::string ToString() const;
};

/// Tie rule for equal multiplicities. The paper is silent on ties; the
/// default is lexicographic-ascending on the record string. The reverse
/// policy exists for the robustness ablation (bench_ablation_tiebreak):
/// if the study's conclusions moved under a different tie order they
/// would be artifacts.
enum class TieBreak : int {
  kLexicographic = 0,
  kReverseLexicographic = 1,
};

/// Merges identical records and orders them by multiplicity, descending,
/// breaking ties per `tie_break`. Records must all belong to the same
/// user (checked).
std::vector<MergedLocationString> MergeAndOrder(
    const std::vector<LocationRecord>& records,
    TieBreak tie_break = TieBreak::kLexicographic);

}  // namespace stir::core

#endif  // STIR_CORE_LOCATION_STRING_H_
