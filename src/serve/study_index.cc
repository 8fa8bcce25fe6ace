#include "serve/study_index.h"

#include <algorithm>

#include "common/logging.h"

namespace stir::serve {

namespace {

/// The district table's order: byte order of the display names, then name
/// key, so two keys whose displays coincide ("A B" + "C" against "A" +
/// "B C", possible only in a custom gazetteer) stay two entries.
bool DistrictBefore(const geo::DistrictNameTable& names, NameId a, NameId b) {
  const int order = names.names[a].display.compare(names.names[b].display);
  return order != 0 ? order < 0 : a < b;
}

}  // namespace

StudyIndex StudyIndex::Build(const core::StudyResult& result,
                             const geo::AdminDb& db) {
  StudyIndex index;
  index.db_ = &db;
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

  // District totals per name key. A key gets an entry when a final user
  // tweeted from it or (with at least one GPS district) lives in it.
  const geo::DistrictNameTable& names = db.district_names();
  std::vector<DistrictEntry> by_key(names.names.size());
  auto district_of = [&](NameId key) -> DistrictEntry& {
    STIR_CHECK_LT(key, by_key.size()) << "name key outside the gazetteer";
    by_key[key].name = key;
    return by_key[key];
  };

  index.users_.reserve(ordered.size());
  for (const core::UserGrouping* grouping : ordered) {
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
      entry.profile_district = grouping->profile_name_key;
      ++district_of(grouping->profile_name_key).profile_users;
    }
    for (const core::DistrictCount& row : grouping->ordered) {
      DistrictEntry& district = district_of(row.name_key);
      ++district.num_users;
      district.gps_tweets += row.count;
      index.locations_.push_back(RankedLocation{
          row.name_key, row.count, row.name_key == grouping->profile_name_key});
    }
    index.users_.push_back(entry);
  }

  // The district table, with each posting list's slice of the arena.
  for (const DistrictEntry& district : by_key) {
    if (district.name != kInvalidName) index.districts_.push_back(district);
  }
  std::sort(index.districts_.begin(), index.districts_.end(),
            [&](const DistrictEntry& a, const DistrictEntry& b) {
              return DistrictBefore(names, a.name, b.name);
            });
  uint32_t postings = 0;
  for (DistrictEntry& district : index.districts_) {
    district.first_user = postings;
    by_key[district.name].first_user = postings;  // The fill cursor below.
    postings += district.num_users;
  }

  // Postings in one pass over the users, which ascend, so each district's
  // list ascends and holds each user once.
  index.postings_.resize(postings);
  for (const UserEntry& user : index.users_) {
    for (const RankedLocation* location = index.LocationsBegin(user);
         location != index.LocationsEnd(user); ++location) {
      index.postings_[by_key[location->district].first_user++] = user.user;
    }
  }
  return index;
}

const UserEntry* StudyIndex::FindUser(twitter::UserId user) const {
  auto it = std::lower_bound(users_.begin(), users_.end(), user,
                             [](const UserEntry& entry, twitter::UserId id) {
                               return entry.user < id;
                             });
  if (it == users_.end() || it->user != user) return nullptr;
  return &*it;
}

const DistrictEntry* StudyIndex::FindDistrict(std::string_view state,
                                              std::string_view county) const {
  if (db_ == nullptr) return nullptr;
  auto region = db_->FindCounty(state, county);
  if (!region.ok()) return nullptr;
  const geo::DistrictNameTable& names = db_->district_names();
  const NameId key = names.key_of_region[static_cast<size_t>(*region)];
  auto it = std::lower_bound(
      districts_.begin(), districts_.end(), key,
      [&](const DistrictEntry& entry, NameId k) {
        return DistrictBefore(names, entry.name, k);
      });
  if (it == districts_.end() || it->name != key) return nullptr;
  return &*it;
}

int64_t StudyIndex::MemoryBytes() const {
  const auto bytes = [](const auto& table) {
    return static_cast<int64_t>(table.size() * sizeof(table[0]));
  };
  return bytes(users_) + bytes(locations_) + bytes(districts_) +
         bytes(postings_);
}

}  // namespace stir::serve
