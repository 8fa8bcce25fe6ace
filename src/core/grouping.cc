#include "core/grouping.h"

#include <algorithm>

namespace stir::core {

const char* TopKGroupToString(TopKGroup group) {
  switch (group) {
    case TopKGroup::kTop1:
      return "Top-1";
    case TopKGroup::kTop2:
      return "Top-2";
    case TopKGroup::kTop3:
      return "Top-3";
    case TopKGroup::kTop4:
      return "Top-4";
    case TopKGroup::kTop5:
      return "Top-5";
    case TopKGroup::kTopPlus:
      return "Top-6+";
    case TopKGroup::kNone:
      return "None";
  }
  return "unknown";
}

TopKGroup GroupForRank(int rank) {
  if (rank < 1) return TopKGroup::kNone;
  if (rank <= 5) return static_cast<TopKGroup>(rank - 1);
  return TopKGroup::kTopPlus;
}

UserGrouping GroupUser(const RefinedUser& user, const geo::AdminDb& db,
                       TieBreak tie_break) {
  // Integer merge over precomputed name keys instead of rendering a
  // Table I string per GPS tweet and merging through a std::map. The
  // string path keys the map on "user#pstate#pcounty#tstate#tcounty";
  // within one user the "user#pstate#pcounty#" prefix is constant, so
  // (a) two records collide exactly when their tweet (state, county)
  // names coincide — i.e. when they share a DistrictNameTable key — and
  // (b) the map's byte-wise order is the byte-wise order of
  // "tstate#tcounty", which is each key's lex_rank. Counting per key
  // and sorting by (count desc, lex_rank) therefore reproduces
  // MergeAndOrder bit for bit while never hashing a string.
  const geo::DistrictNameTable& names = db.district_names();
  UserGrouping grouping;
  grouping.user = user.user;
  grouping.profile_name_key =
      names.key_of_region[static_cast<size_t>(user.profile_region)];
  grouping.gps_tweet_count = static_cast<int64_t>(user.tweet_regions.size());

  // First-seen linear vector: users tweet from a handful of districts,
  // so a scan beats any hash map at this size.
  std::vector<DistrictCount>& merged = grouping.ordered;
  for (geo::RegionId tweet_region : user.tweet_regions) {
    const uint32_t key = names.key_of_region[static_cast<size_t>(tweet_region)];
    auto it = std::find_if(
        merged.begin(), merged.end(),
        [key](const DistrictCount& m) { return m.name_key == key; });
    if (it == merged.end()) {
      merged.push_back(DistrictCount{key, 1});
    } else {
      ++it->count;
    }
  }

  // Count descending; ties by the rank of "tstate#tcounty" — ascending
  // for the default policy, descending for the reverse ablation (the
  // string path reverses its lexicographically-ascending merge output
  // before the stable count sort). Distinct keys have distinct ranks,
  // so the comparator is a strict weak ordering and std::sort is
  // deterministic here.
  std::sort(merged.begin(), merged.end(),
            [&](const DistrictCount& a, const DistrictCount& b) {
              if (a.count != b.count) return a.count > b.count;
              const uint32_t ra = names.names[a.name_key].lex_rank;
              const uint32_t rb = names.names[b.name_key].lex_rank;
              return tie_break == TieBreak::kLexicographic ? ra < rb : ra > rb;
            });

  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged[i].name_key == grouping.profile_name_key) {
      grouping.match_rank = static_cast<int>(i) + 1;
      grouping.matched_tweet_count = merged[i].count;
      break;
    }
  }
  grouping.group = GroupForRank(grouping.match_rank);
  return grouping;
}

MergedLocationString RenderTableRow(const UserGrouping& grouping,
                                    const DistrictCount& row,
                                    const geo::AdminDb& db) {
  const std::vector<geo::DistrictNameTable::Name>& names =
      db.district_names().names;
  const geo::DistrictNameTable::Name& profile =
      names[grouping.profile_name_key];
  const geo::DistrictNameTable::Name& tweet = names[row.name_key];
  MergedLocationString rendered;
  rendered.record.user = grouping.user;
  rendered.record.profile_state = profile.state;
  rendered.record.profile_county = profile.county;
  rendered.record.tweet_state = tweet.state;
  rendered.record.tweet_county = tweet.county;
  rendered.count = row.count;
  return rendered;
}

std::vector<UserGrouping> GroupUsers(const std::vector<RefinedUser>& users,
                                     const geo::AdminDb& db,
                                     TieBreak tie_break,
                                     common::ThreadPool* pool) {
  std::vector<UserGrouping> groupings(users.size());
  common::ParallelFor(pool, users.size(), [&](size_t i) {
    groupings[i] = GroupUser(users[i], db, tie_break);
  });
  return groupings;
}

}  // namespace stir::core
