#include "infer/inference_index.h"

#include <algorithm>
#include <thread>

#include "common/clock.h"
#include "common/logging.h"
#include "io/corpus.h"

namespace stir::infer {

EvidenceBuilder::EvidenceBuilder(const geo::AdminDb* db)
    : db_(db), matcher_(db) {
  STIR_CHECK(db != nullptr);
}

void EvidenceBuilder::AddUser(twitter::UserId user) { Slot(user); }

void EvidenceBuilder::Reserve(size_t users) {
  slots_.reserve(users);
  slot_of_.reserve(users);
}

UserEvidence& EvidenceBuilder::Slot(twitter::UserId user) {
  auto [it, added] =
      slot_of_.try_emplace(user, static_cast<uint32_t>(slots_.size()));
  if (added) slots_.emplace_back().user = user;
  return slots_[it->second];
}

RegionEvidence& EvidenceBuilder::RegionOf(UserEvidence& user,
                                          geo::RegionId region) {
  auto it = std::lower_bound(
      user.regions.begin(), user.regions.end(), region,
      [](const RegionEvidence& e, geo::RegionId id) { return e.region < id; });
  if (it == user.regions.end() || it->region != region) {
    it = user.regions.insert(it, RegionEvidence{region});
  }
  return *it;
}

void EvidenceBuilder::AddTweet(const twitter::Tweet& tweet) {
  Fold(*db_, matcher_, tweet.gps.has_value() ? &*tweet.gps : nullptr,
       tweet.time, tweet.text, &scratch_, &Slot(tweet.user));
}

void EvidenceBuilder::Fold(const geo::AdminDb& db,
                           const text::GazetteerMatcher& matcher,
                           const geo::LatLng* gps, SimTime time,
                           std::string_view text, Scratch* scratch,
                           UserEvidence* user) {
  ++user->tweets;

  if (gps != nullptr) {
    auto located = db.Locate(*gps);
    if (located.ok()) {
      RegionEvidence& region = RegionOf(*user, *located);
      ++region.gps_tweets;
      ++user->gps_tweets;
      if (IsNightHour(HourOfDay(time))) ++region.night_gps_tweets;
    }
  }

  if (!text.empty()) {
    // Exact phrases only: a fuzzy near-miss is noise, not evidence, and
    // the exact scan finds exactly the exact matches of the full Match.
    text::TokenizeTweet(text, &scratch->tokens);
    matcher.ScanExact(scratch->tokens, &scratch->matches);
    for (const text::PhraseMatch& match : scratch->matches) {
      // Only unambiguous county mentions vote: a name shared by several
      // states (six Korean metros have a "Jung-gu") is noise too.
      const text::Phrase& phrase = *match.phrase;
      if (phrase.kind != text::PhraseKind::kCounty ||
          phrase.regions.size() != 1) {
        continue;
      }
      ++RegionOf(*user, phrase.regions.front()).text_votes;
      ++user->text_votes;
    }
  }
}

void EvidenceBuilder::Merge(const UserEvidence& from, UserEvidence* into) {
  into->tweets += from.tweets;
  into->gps_tweets += from.gps_tweets;
  into->text_votes += from.text_votes;
  for (const RegionEvidence& evidence : from.regions) {
    RegionEvidence& region = RegionOf(*into, evidence.region);
    region.gps_tweets += evidence.gps_tweets;
    region.night_gps_tweets += evidence.night_gps_tweets;
    region.text_votes += evidence.text_votes;
  }
}

InferenceIndex EvidenceBuilder::Snapshot() const {
  const size_t sorted = id_order_.size();
  if (sorted < slots_.size()) {
    for (size_t slot = sorted; slot < slots_.size(); ++slot) {
      id_order_.emplace_back(slots_[slot].user, static_cast<uint32_t>(slot));
    }
    auto added = id_order_.begin() + static_cast<std::ptrdiff_t>(sorted);
    std::sort(added, id_order_.end());
    std::inplace_merge(id_order_.begin(), added, id_order_.end());
  }
  InferenceIndex index;
  index.db_ = db_;
  index.users_.reserve(slots_.size());
  for (const auto& [user, slot] : id_order_) {
    index.users_.push_back(slots_[slot]);
  }
  return index;
}

std::shared_ptr<const InferenceIndex> EvidenceBuilder::Build() const {
  return std::make_shared<const InferenceIndex>(Snapshot());
}

InferenceIndex InferenceIndex::Build(const twitter::Dataset& dataset,
                                     const geo::AdminDb& db) {
  EvidenceBuilder builder(&db);
  builder.Reserve(dataset.users().size());
  for (const twitter::User& user : dataset.users()) builder.AddUser(user.id);
  for (const twitter::Tweet& tweet : dataset.tweets()) {
    builder.AddTweet(tweet);
  }
  return builder.Snapshot();
}

InferenceIndex InferenceIndex::Build(const io::CorpusView& view,
                                     const geo::AdminDb& db) {
  common::ThreadPool pool(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  return Build(view, db, &pool);
}

InferenceIndex InferenceIndex::Build(const io::CorpusView& view,
                                     const geo::AdminDb& db,
                                     common::ThreadPool* pool) {
  const text::GazetteerMatcher matcher(&db);
  // One slot per user row; each shard folds its own rows' tweets.
  std::vector<UserEvidence> slots(view.user_count());
  common::ParallelForShards(
      pool, slots.size(), [&](size_t, size_t begin, size_t end) {
        EvidenceBuilder::Scratch scratch;
        for (size_t row = begin; row < end; ++row) {
          UserEvidence& user = slots[row];
          user.user = view.user_id(row);
          for (uint64_t pos = view.user_tweet_begin(row);
               pos < view.user_tweet_end(row); ++pos) {
            const size_t tweet = view.user_tweet_row(pos);
            const bool has_gps = view.tweet_has_gps(tweet);
            const geo::LatLng gps =
                has_gps ? view.tweet_gps(tweet) : geo::LatLng{};
            EvidenceBuilder::Fold(db, matcher, has_gps ? &gps : nullptr,
                                  view.tweet_time(tweet),
                                  view.tweet_text(tweet), &scratch, &user);
          }
        }
      });

  // Move the slots into id order; row order breaks ties, and a repeated
  // id folds into its first slot.
  std::vector<uint32_t> order(slots.size());
  for (uint32_t row = 0; row < order.size(); ++row) order[row] = row;
  auto by_id = [&](uint32_t a, uint32_t b) {
    return slots[a].user < slots[b].user;
  };
  if (!std::is_sorted(order.begin(), order.end(), by_id)) {
    std::stable_sort(order.begin(), order.end(), by_id);
  }
  InferenceIndex index;
  index.db_ = &db;
  index.users_.reserve(slots.size());
  for (uint32_t row : order) {
    if (!index.users_.empty() && index.users_.back().user == slots[row].user) {
      EvidenceBuilder::Merge(slots[row], &index.users_.back());
    } else {
      index.users_.push_back(std::move(slots[row]));
    }
  }
  return index;
}

const UserEvidence* InferenceIndex::FindUser(twitter::UserId user) const {
  auto it = std::lower_bound(users_.begin(), users_.end(), user,
                             [](const UserEvidence& e, twitter::UserId id) {
                               return e.user < id;
                             });
  if (it == users_.end() || it->user != user) return nullptr;
  return &*it;
}

int64_t InferenceIndex::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(*this)) +
                  static_cast<int64_t>(users_.capacity() *
                                       sizeof(UserEvidence));
  for (const UserEvidence& user : users_) {
    bytes += static_cast<int64_t>(user.regions.capacity() *
                                  sizeof(RegionEvidence));
  }
  return bytes;
}

}  // namespace stir::infer
