#include "serve/study_index.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace stir::serve {

namespace {

/// Lookup key for a (state, county) pair: ASCII-lowercased, tab-joined
/// (tab cannot appear in gazetteer names).
std::string DistrictKey(std::string_view state, std::string_view county) {
  std::string key = ToLower(state);
  key += '\t';
  key += ToLower(county);
  return key;
}

/// Build-time accumulator for one district's postings.
struct DistrictBuild {
  std::string state;
  std::string county;
  std::vector<twitter::UserId> users;
  int64_t gps_tweets = 0;
  int64_t profile_users = 0;
};

}  // namespace

NameId StudyIndex::Intern(const std::string& name) {
  auto [it, inserted] =
      name_ids_.emplace(name, static_cast<NameId>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

StudyIndex StudyIndex::Build(const core::StudyResult& result,
                             const geo::AdminDb& db) {
  StudyIndex index;
  if (result.incomplete) return index;

  index.funnel_ = result.funnel;
  for (int g = 0; g < core::kNumTopKGroups; ++g) {
    index.groups_[g] = result.groups[g];
  }
  index.overall_avg_locations_ = result.overall_avg_locations;
  index.final_users_ = result.final_users;

  // User table in ascending-id order (value-determined, not build-order-
  // determined), locations laid into the arena in rank order.
  std::vector<const core::UserGrouping*> ordered;
  ordered.reserve(result.groupings.size());
  for (const core::UserGrouping& grouping : result.groupings) {
    ordered.push_back(&grouping);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const core::UserGrouping* a, const core::UserGrouping* b) {
              return a->user < b->user;
            });

  // District accumulation keyed by the display name, which sorts the
  // district table deterministically. The transparent comparator lets
  // the probe below use the gazetteer's display string_view.
  std::map<std::string, DistrictBuild, std::less<>> district_builds;

  // Every grouping comes from core::GroupUser, which sets the gazetteer
  // name key of the profile and of each row, so a district's display
  // string is interned (and its accumulator found) once per distinct key,
  // not once per location row. The caches fill lazily, so the names_ pool
  // and the district map grow in first-touch order.
  const geo::DistrictNameTable& names = db.district_names();
  std::vector<NameId> name_id_of_key(names.names.size(), kInvalidName);
  std::vector<DistrictBuild*> build_of_key(names.names.size(), nullptr);
  auto interned_display = [&](uint32_t key) -> NameId {
    NameId& cached = name_id_of_key[key];
    if (cached == kInvalidName) cached = index.Intern(names.names[key].display);
    return cached;
  };
  // std::map nodes are pointer-stable, so the per-key cache can hold the
  // accumulator directly. Distinct keys whose displays collide (rare but
  // possible: "A B"+"C" vs "A"+"B C") resolve to the same entry.
  auto district_build_of = [&](uint32_t key) -> DistrictBuild& {
    DistrictBuild*& cached = build_of_key[key];
    if (cached == nullptr) {
      const geo::DistrictNameTable::Name& name = names.names[key];
      auto it = district_builds.find(std::string_view(name.display));
      if (it == district_builds.end()) {
        it = district_builds.emplace(name.display, DistrictBuild{}).first;
        it->second.state = name.state;
        it->second.county = name.county;
      }
      cached = &it->second;
    }
    return *cached;
  };

  index.users_.reserve(ordered.size());
  for (const core::UserGrouping* grouping : ordered) {
    STIR_CHECK(grouping->profile_name_key != core::kInvalidNameKey)
        << "grouping of user " << grouping->user << " has no name key";
    UserEntry entry;
    entry.user = grouping->user;
    entry.group = grouping->group;
    entry.match_rank = grouping->match_rank;
    entry.gps_tweets = grouping->gps_tweet_count;
    entry.matched_tweets = grouping->matched_tweet_count;
    entry.first_location = static_cast<uint32_t>(index.locations_.size());
    entry.num_locations = static_cast<uint32_t>(grouping->ordered.size());
    entry.concentration = core::ComputeConcentration(*grouping);
    if (!grouping->ordered.empty()) {
      entry.profile_district = interned_display(grouping->profile_name_key);
    }
    for (const core::MergedLocationString& merged : grouping->ordered) {
      STIR_CHECK(merged.name_key != core::kInvalidNameKey)
          << "a row of user " << grouping->user << " has no name key";
      RankedLocation location;
      location.count = merged.count;
      location.district = interned_display(merged.name_key);
      location.matched = merged.name_key == grouping->profile_name_key;
      index.locations_.push_back(location);
      DistrictBuild& build = district_build_of(merged.name_key);
      build.users.push_back(grouping->user);
      build.gps_tweets += merged.count;
    }
    if (!grouping->ordered.empty()) {
      ++district_build_of(grouping->profile_name_key).profile_users;
    }
    index.user_ids_.emplace(entry.user,
                            static_cast<uint32_t>(index.users_.size()));
    index.users_.push_back(entry);
  }

  // District table + postings arena, both in deterministic order (the
  // per-user pass above visits users ascending, so each posting list is
  // already ascending and duplicate-free).
  index.districts_.reserve(district_builds.size());
  for (auto& [name, build] : district_builds) {
    DistrictEntry entry;
    entry.name = index.Intern(name);
    entry.first_user = static_cast<uint32_t>(index.postings_.size());
    entry.num_users = static_cast<uint32_t>(build.users.size());
    entry.gps_tweets = build.gps_tweets;
    entry.profile_users = build.profile_users;
    index.postings_.insert(index.postings_.end(), build.users.begin(),
                           build.users.end());
    uint32_t district_index = static_cast<uint32_t>(index.districts_.size());
    index.districts_.push_back(entry);

    // Lookup keys: the canonical spelling plus every alias the gazetteer
    // knows (alternate romanizations, hangul), so clients can query with
    // whatever spelling the original service produced.
    index.district_keys_.emplace(DistrictKey(build.state, build.county),
                                 district_index);
    auto region = db.FindCounty(build.state, build.county);
    if (region.ok()) {
      for (const std::string& alias : db.region(*region).aliases) {
        index.district_keys_.emplace(DistrictKey(build.state, alias),
                                     district_index);
      }
    }
    const char* hangul =
        geo::AdminDb::HangulCountyName(build.state, build.county);
    if (hangul != nullptr) {
      index.district_keys_.emplace(DistrictKey(build.state, hangul),
                                   district_index);
    }
  }
  return index;
}

const UserEntry* StudyIndex::FindUser(twitter::UserId user) const {
  auto it = user_ids_.find(user);
  if (it == user_ids_.end()) return nullptr;
  return &users_[it->second];
}

const DistrictEntry* StudyIndex::FindDistrict(std::string_view state,
                                              std::string_view county) const {
  auto it = district_keys_.find(DistrictKey(state, county));
  if (it == district_keys_.end()) return nullptr;
  return &districts_[it->second];
}

int64_t StudyIndex::MemoryBytes() const {
  int64_t bytes = 0;
  for (const std::string& name : names_) {
    bytes += static_cast<int64_t>(sizeof(std::string) + name.capacity());
  }
  for (const auto& [key, unused] : district_keys_) {
    bytes += static_cast<int64_t>(sizeof(std::string) + key.capacity() +
                                  sizeof(uint32_t));
  }
  for (const auto& [key, unused] : name_ids_) {
    bytes += static_cast<int64_t>(sizeof(std::string) + key.capacity() +
                                  sizeof(NameId));
  }
  bytes += static_cast<int64_t>(users_.size() * sizeof(UserEntry));
  bytes += static_cast<int64_t>(user_ids_.size() *
                                (sizeof(twitter::UserId) + sizeof(uint32_t)));
  bytes += static_cast<int64_t>(locations_.size() * sizeof(RankedLocation));
  bytes += static_cast<int64_t>(districts_.size() * sizeof(DistrictEntry));
  bytes += static_cast<int64_t>(postings_.size() * sizeof(twitter::UserId));
  return bytes;
}

}  // namespace stir::serve
