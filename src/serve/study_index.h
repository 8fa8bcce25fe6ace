#ifndef STIR_SERVE_STUDY_INDEX_H_
#define STIR_SERVE_STUDY_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/concentration.h"
#include "core/grouping.h"
#include "core/study.h"
#include "geo/admin_db.h"
#include "twitter/model.h"

namespace stir::serve {

/// A district's name: its geo::DistrictNameTable key in the gazetteer
/// the index was built against (StudyIndex::name renders it).
using NameId = uint32_t;
inline constexpr NameId kInvalidName = 0xFFFFFFFFu;

/// One ranked entry of a user's merged location list (the paper's
/// Table II row, as served).
struct RankedLocation {
  NameId district = kInvalidName;  ///< Name key of the tweet district.
  int64_t count = 0;               ///< GPS tweets from that district.
  bool matched = false;            ///< District == the profile district.
};

/// Everything the serving layer answers about one final user. Districts
/// are gazetteer name keys and the ranked list lives in the index's
/// location arena; an entry is a fixed-size record, so the user table is
/// one flat vector.
struct UserEntry {
  twitter::UserId user = twitter::kInvalidUser;
  core::TopKGroup group = core::TopKGroup::kNone;
  int32_t match_rank = -1;  ///< 1-based; -1 when unmatched.
  NameId profile_district = kInvalidName;
  int64_t gps_tweets = 0;
  int64_t matched_tweets = 0;
  /// [first_location, first_location + num_locations) into locations().
  uint32_t first_location = 0;
  uint32_t num_locations = 0;
  /// Concentration view of the same per-user counts (Pavalanathan &
  /// Eisenstein motivate serving dispersion next to the ordinal group).
  core::ConcentrationMetrics concentration;
};

/// Per-district postings: which final users tweeted from the district,
/// and for how many it is the profile district.
struct DistrictEntry {
  NameId name = kInvalidName;  ///< The district's name key.
  /// [first_user, first_user + num_users) into postings(): user ids of
  /// final users with >= 1 GPS tweet from this district, ascending.
  uint32_t first_user = 0;
  uint32_t num_users = 0;
  int64_t gps_tweets = 0;     ///< GPS tweets geocoded to this district.
  int64_t profile_users = 0;  ///< Final users whose profile names it.
};

/// Immutable snapshot of a StudyResult built for concurrent read-only
/// serving: O(log n) user lookup, district → users postings lists, and
/// the Top-k group table, all in flat vectors (DESIGN.md §10). Districts
/// are named by the gazetteer's name keys, so the index holds no strings.
/// Construction happens once on one thread; afterwards every member is
/// const-safe to read from any number of threads with no synchronization
/// — the property the serving layer's determinism guarantee rests on.
///
/// All orderings are value-determined (users ascending, districts by
/// display name, postings ascending), never build-order-determined, so
/// two indexes built from equal StudyResults answer byte-identically.
class StudyIndex {
 public:
  /// Builds from a completed study whose groupings were made against
  /// `db`, which names the districts and must outlive the index. A row
  /// or profile key outside db's name table fails a check.
  /// `result.incomplete` runs (a crashed study that has not been resumed
  /// to completion) are rejected by returning an empty index — callers
  /// check via empty().
  static StudyIndex Build(const core::StudyResult& result,
                          const geo::AdminDb& db);

  StudyIndex() = default;
  StudyIndex(const StudyIndex&) = delete;
  StudyIndex& operator=(const StudyIndex&) = delete;
  StudyIndex(StudyIndex&&) = default;
  StudyIndex& operator=(StudyIndex&&) = default;

  bool empty() const { return users_.empty(); }
  size_t user_count() const { return users_.size(); }
  size_t district_count() const { return districts_.size(); }

  /// O(log users) by user id; nullptr for users outside the final sample.
  const UserEntry* FindUser(twitter::UserId user) const;

  /// District by (state, county), resolved through
  /// geo::AdminDb::FindCounty: ASCII-case-insensitive, and any alias the
  /// gazetteer knows (alternate romanizations, hangul) names its district.
  /// nullptr when the pair is unknown, when no final user tweeted from or
  /// lives in the district, and for a default-constructed index.
  const DistrictEntry* FindDistrict(std::string_view state,
                                    std::string_view county) const;

  /// A user's ranked location list (multiplicity-descending, the study's
  /// tie rule), backed by the index arena.
  const RankedLocation* LocationsBegin(const UserEntry& entry) const {
    return locations_.data() + entry.first_location;
  }
  const RankedLocation* LocationsEnd(const UserEntry& entry) const {
    return locations_.data() + entry.first_location + entry.num_locations;
  }

  /// A district's posting list (ascending user ids).
  const twitter::UserId* PostingsBegin(const DistrictEntry& entry) const {
    return postings_.data() + entry.first_user;
  }
  const twitter::UserId* PostingsEnd(const DistrictEntry& entry) const {
    return postings_.data() + entry.first_user + entry.num_users;
  }

  /// A district's display name ("State County").
  const std::string& name(NameId id) const {
    return db_->district_names().names[id].display;
  }

  /// Districts in byte order of their display names, then by name key
  /// (deterministic iteration for summaries).
  const std::vector<DistrictEntry>& districts() const { return districts_; }
  const std::vector<UserEntry>& users() const { return users_; }

  /// The study-level aggregates served by topk_summary.
  const core::GroupStats& group(core::TopKGroup g) const {
    return groups_[static_cast<int>(g)];
  }
  const core::FunnelStats& funnel() const { return funnel_; }
  double overall_avg_locations() const { return overall_avg_locations_; }
  int64_t final_users() const { return final_users_; }

  /// Approximate resident bytes of all tables (served in server_stats).
  int64_t MemoryBytes() const;

 private:
  /// Names the districts; null only for a default-constructed index.
  const geo::AdminDb* db_ = nullptr;
  std::vector<UserEntry> users_;  ///< Ascending user id.
  std::vector<RankedLocation> locations_;  ///< Arena for UserEntry spans.
  std::vector<DistrictEntry> districts_;   ///< See districts().
  std::vector<twitter::UserId> postings_;  ///< Arena for DistrictEntry.

  core::GroupStats groups_[core::kNumTopKGroups] = {};
  core::FunnelStats funnel_;
  double overall_avg_locations_ = 0.0;
  int64_t final_users_ = 0;
};

}  // namespace stir::serve

#endif  // STIR_SERVE_STUDY_INDEX_H_
