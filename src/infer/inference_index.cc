#include "infer/inference_index.h"

#include <algorithm>

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
  UserEvidence& user = Slot(tweet.user);
  ++user.tweets;

  if (tweet.gps.has_value()) {
    auto located = db_->Locate(*tweet.gps);
    if (located.ok()) {
      RegionEvidence& region = RegionOf(user, *located);
      ++region.gps_tweets;
      ++user.gps_tweets;
      if (IsNightHour(HourOfDay(tweet.time))) ++region.night_gps_tweets;
    }
  }

  if (!tweet.text.empty()) {
    // Exact phrases only: a fuzzy near-miss is noise, not evidence, and
    // the exact scan finds exactly the exact matches of the full Match.
    text::TokenizeTweet(tweet.text, &tokens_);
    matcher_.ScanExact(tokens_, &matches_);
    for (const text::PhraseMatch& match : matches_) {
      // Only unambiguous county mentions vote: a name shared by several
      // states (six Korean metros have a "Jung-gu") is noise too.
      const text::Phrase& phrase = *match.phrase;
      if (phrase.kind != text::PhraseKind::kCounty ||
          phrase.regions.size() != 1) {
        continue;
      }
      ++RegionOf(user, phrase.regions.front()).text_votes;
      ++user.text_votes;
    }
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
  EvidenceBuilder builder(&db);
  builder.Reserve(view.user_count());
  for (size_t row = 0; row < view.user_count(); ++row) {
    builder.AddUser(view.user_id(row));
  }
  twitter::Tweet tweet;
  for (size_t row = 0; row < view.tweet_count(); ++row) {
    tweet.id = view.tweet_id(row);
    tweet.user = view.user_id(view.tweet_user_row(row));
    tweet.time = view.tweet_time(row);
    if (view.tweet_has_gps(row)) {
      tweet.gps = view.tweet_gps(row);
    } else {
      tweet.gps.reset();
    }
    tweet.text.assign(view.tweet_text(row));
    builder.AddTweet(tweet);
  }
  return builder.Snapshot();
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
