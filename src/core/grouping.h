#ifndef STIR_CORE_GROUPING_H_
#define STIR_CORE_GROUPING_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "core/location_string.h"
#include "core/refinement.h"
#include "geo/admin_db.h"

namespace stir::core {

/// The paper's user categories: Top-k when the matched string (profile
/// district == tweet district) ranks k-th in the user's merged, ordered
/// list; None when no tweet was ever posted from the profile district.
enum class TopKGroup : int {
  kTop1 = 0,
  kTop2 = 1,
  kTop3 = 2,
  kTop4 = 3,
  kTop5 = 4,
  kTopPlus = 5,  ///< Matched rank 6 or beyond ("Top-6+").
  kNone = 6,
};

inline constexpr int kNumTopKGroups = 7;

/// "Top-1" ... "Top-5", "Top-6+", "None".
const char* TopKGroupToString(TopKGroup group);

/// Maps a 1-based matched rank (or -1 for no match) to its group.
TopKGroup GroupForRank(int rank);

/// One merged row of the paper's Table II as the grouping pass keeps it:
/// the geo::DistrictNameTable key of the tweet district and how many of
/// the user's GPS tweets were posted from it. RenderTableRow turns it
/// back into the paper's string row.
struct DistrictCount {
  uint32_t name_key = 0;
  int64_t count = 0;
};

/// A classified user: the Table II rows plus the derived rank/group.
struct UserGrouping {
  twitter::UserId user = twitter::kInvalidUser;
  /// Merged and ordered tweet districts (the paper's Table II rows).
  std::vector<DistrictCount> ordered;
  /// 1-based rank of the matched string; -1 when absent.
  int match_rank = -1;
  TopKGroup group = TopKGroup::kNone;
  /// Number of GPS tweets that produced the strings.
  int64_t gps_tweet_count = 0;
  /// Number of matched (profile == tweet district) GPS tweets.
  int64_t matched_tweet_count = 0;
  /// Distinct districts the user tweeted from — |ordered| (the profile
  /// part of each string is constant per user).
  int64_t distinct_tweet_locations() const {
    return static_cast<int64_t>(ordered.size());
  }
  /// geo::DistrictNameTable key of the profile (state, county) pair.
  uint32_t profile_name_key = 0;
};

/// Builds the text-based grouping for one refined user: merges the GPS
/// tweets by the gazetteer name key of their (state, county) pair,
/// orders the rows as the paper's Table II strings would be ordered
/// (breaking count ties per `tie_break`), and locates the matched row.
UserGrouping GroupUser(const RefinedUser& user, const geo::AdminDb& db,
                       TieBreak tie_break = TieBreak::kLexicographic);

/// Renders `row` of `grouping` as its Table II string row, named from
/// `db`, the gazetteer the grouping was built against:
/// "123#Seoul#Yangcheon-gu#Seoul#Yangcheon-gu (3)" once ToString()'d.
MergedLocationString RenderTableRow(const UserGrouping& grouping,
                                    const DistrictCount& row,
                                    const geo::AdminDb& db);

/// Classifies every refined user. Output order always matches `users`
/// order: with a worker-carrying `pool` each grouping is computed in
/// parallel but written to its input index, so the result is bit-identical
/// to the serial run for any thread count.
std::vector<UserGrouping> GroupUsers(
    const std::vector<RefinedUser>& users, const geo::AdminDb& db,
    TieBreak tie_break = TieBreak::kLexicographic,
    common::ThreadPool* pool = nullptr);

}  // namespace stir::core

#endif  // STIR_CORE_GROUPING_H_
