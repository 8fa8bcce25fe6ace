#ifndef STIR_SERVE_STUDY_INDEX_H_
#define STIR_SERVE_STUDY_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/concentration.h"
#include "core/grouping.h"
#include "core/study.h"
#include "geo/admin_db.h"
#include "twitter/model.h"

namespace stir::serve {

/// Stable handle into a StudyIndex string pool.
using NameId = uint32_t;
inline constexpr NameId kInvalidName = 0xFFFFFFFFu;

/// One ranked entry of a user's merged location list (the paper's
/// Table II row, pre-rendered for serving).
struct RankedLocation {
  NameId district = kInvalidName;  ///< Interned "State County".
  int64_t count = 0;               ///< GPS tweets from that district.
  bool matched = false;            ///< District == the profile district.
};

/// Everything the serving layer answers about one final user. Location
/// strings live in the index's interned pool and postings arena; an entry
/// is a fixed-size record, so the user table is one flat vector.
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
  NameId name = kInvalidName;
  /// [first_user, first_user + num_users) into postings(): user ids of
  /// final users with >= 1 GPS tweet from this district, ascending.
  uint32_t first_user = 0;
  uint32_t num_users = 0;
  int64_t gps_tweets = 0;     ///< GPS tweets geocoded to this district.
  int64_t profile_users = 0;  ///< Final users whose profile names it.
};

/// Immutable, string-interned snapshot of a StudyResult built for
/// concurrent read-only serving: O(1) user lookup, district → users
/// postings lists, and the Top-k group table. Construction happens once
/// on one thread; afterwards every member is const-safe to read from any
/// number of threads with no synchronization — the property the serving
/// layer's determinism guarantee rests on.
///
/// All orderings are value-determined (users ascending, districts by
/// name, postings ascending), never build-order-determined, so two
/// indexes built from equal StudyResults answer byte-identically.
class StudyIndex {
 public:
  /// Builds from a completed study. `db` resolves district aliases (the
  /// hangul spellings, alternate romanizations) into lookup keys; it is
  /// only read during Build and not retained. `result.incomplete` runs
  /// (a crashed study that has not been resumed to completion) are
  /// rejected by returning an empty index — callers check via empty().
  /// Every grouping must come from core::GroupUser, which sets the
  /// profile's and each row's gazetteer name key (checked).
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

  /// O(1) by user id; nullptr for users outside the final sample.
  const UserEntry* FindUser(twitter::UserId user) const;

  /// District by (state, county), ASCII-case-insensitive, consulting the
  /// gazetteer aliases captured at build time. nullptr when absent or no
  /// final user tweeted from / lives in it.
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

  /// Interned string by id ("State County").
  const std::string& name(NameId id) const { return names_[id]; }

  /// Districts in name order (deterministic iteration for summaries).
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
  NameId Intern(const std::string& name);

  std::vector<std::string> names_;  ///< Interned pool; NameId indexes it.
  std::unordered_map<std::string, NameId> name_ids_;  ///< Build + lookup.
  /// Lowercased "state\tcounty" (canonical and alias spellings) → index
  /// into districts_.
  std::unordered_map<std::string, uint32_t> district_keys_;

  std::vector<UserEntry> users_;  ///< Ascending user id.
  std::unordered_map<twitter::UserId, uint32_t> user_ids_;
  std::vector<RankedLocation> locations_;  ///< Arena for UserEntry spans.
  std::vector<DistrictEntry> districts_;   ///< Ascending by name.
  std::vector<twitter::UserId> postings_;  ///< Arena for DistrictEntry.

  core::GroupStats groups_[core::kNumTopKGroups] = {};
  core::FunnelStats funnel_;
  double overall_avg_locations_ = 0.0;
  int64_t final_users_ = 0;
};

}  // namespace stir::serve

#endif  // STIR_SERVE_STUDY_INDEX_H_
