#include "infer/inference_index.h"

#include <algorithm>
#include <limits>

#include "common/clock.h"
#include "common/logging.h"
#include "io/corpus.h"

namespace stir::infer {

namespace {

/// Region offsets and user rows are stored as uint32.
constexpr size_t kMaxOffset = std::numeric_limits<uint32_t>::max();

/// Sorts `items` by id on `pool`, stably (one id's entries keep their
/// order): an LSD radix over id − `min`, 11 bits a pass, as many passes
/// as `max` − `min` needs. Each pass counts digits per shard, then each
/// shard scatters its entries to the positions its counts reserve.
void RadixSortById(common::ThreadPool* pool, twitter::UserId min,
                   twitter::UserId max, Column<IdRow>* items) {
  constexpr int kBits = 11;
  constexpr size_t kBuckets = size_t{1} << kBits;
  const uint64_t span =
      static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  const size_t shards = common::NumShards(pool, items->size());
  std::vector<size_t> next(shards * kBuckets);
  Column<IdRow> sorted(items->size());
  for (int shift = 0; shift < 64 && (span >> shift) != 0; shift += kBits) {
    const auto digit = [&](const IdRow& item) {
      const uint64_t offset =
          static_cast<uint64_t>(item.id) - static_cast<uint64_t>(min);
      return static_cast<size_t>((offset >> shift) & (kBuckets - 1));
    };
    std::fill(next.begin(), next.end(), 0);
    common::ParallelForShards(
        pool, items->size(), [&](size_t shard, size_t begin, size_t end) {
          size_t* count = &next[shard * kBuckets];
          for (size_t i = begin; i < end; ++i) ++count[digit((*items)[i])];
        });
    // Digit-major, shard-minor: where each shard's run of each digit goes.
    size_t at = 0;
    for (size_t d = 0; d < kBuckets; ++d) {
      for (size_t shard = 0; shard < shards; ++shard) {
        const size_t count = next[shard * kBuckets + d];
        next[shard * kBuckets + d] = at;
        at += count;
      }
    }
    common::ParallelForShards(
        pool, items->size(), [&](size_t shard, size_t begin, size_t end) {
          size_t* to = &next[shard * kBuckets];
          for (size_t i = begin; i < end; ++i) {
            const IdRow& item = (*items)[i];
            sorted[to[digit(item)]++] = item;
          }
        });
    items->swap(sorted);
  }
}

}  // namespace

EvidenceBuilder::EvidenceBuilder(const geo::AdminDb* db)
    : db_(db), matcher_(db) {
  STIR_CHECK(db != nullptr);
}

uint32_t EvidenceBuilder::AddUser(twitter::UserId user) {
  STIR_CHECK(slots_.size() < kMaxOffset) << "too many users for one index";
  const auto slot = static_cast<uint32_t>(slots_.size());
  slots_.emplace_back().user = user;
  touched_.push_back({user, slot});
  changed_.push_back(true);
  return slot;
}

void EvidenceBuilder::Reserve(size_t users) {
  slots_.reserve(users);
  touched_.reserve(users);
  changed_.reserve(users);
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

void EvidenceBuilder::AddTweet(uint32_t slot, const twitter::Tweet& tweet) {
  STIR_CHECK(slot < slots_.size()) << "unknown evidence slot " << slot;
  UserEvidence& user = slots_[slot];
  if (!changed_[slot]) {
    changed_[slot] = true;
    touched_.push_back({user.user, slot});
  }
  const size_t regions = user.regions.size();
  Fold(*db_, matcher_, tweet.gps.has_value() ? &*tweet.gps : nullptr,
       tweet.time, tweet.text, &scratch_, &user);
  region_count_ += user.regions.size() - regions;
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

InferenceIndex EvidenceBuilder::Snapshot() {
  const InferenceIndex empty;
  const InferenceIndex& base = published_ != nullptr ? *published_ : empty;
  // Every slot below `base_users` has a row in the base; the rest are new.
  const size_t base_users = base.user_count();
  if (touched_.size() > 1) {
    const auto [min, max] = std::minmax_element(
        touched_.begin(), touched_.end(),
        [](const IdRow& a, const IdRow& b) { return a.id < b.id; });
    RadixSortById(nullptr, min->id, max->id, &touched_);
  }
  STIR_CHECK(region_count_ <= kMaxOffset) << "too many regions for one index";
  InferenceIndex index;
  index.db_ = db_;
  index.ResizeUsers(slots_.size());
  index.regions_.reserve(region_count_);

  // One merge by id: base rows [row, end) that no touched slot rewrites
  // are copied as a run, then the touched slot is written in place.
  size_t row = 0;
  size_t out = 0;
  const auto copy_clean = [&](size_t end) {
    const auto from = static_cast<std::ptrdiff_t>(row);
    const auto to = static_cast<std::ptrdiff_t>(end);
    const auto at = static_cast<std::ptrdiff_t>(out);
    std::copy(base.ids_.begin() + from, base.ids_.begin() + to,
              index.ids_.begin() + at);
    std::copy(base.tweets_.begin() + from, base.tweets_.begin() + to,
              index.tweets_.begin() + at);
    std::copy(base.gps_tweets_.begin() + from, base.gps_tweets_.begin() + to,
              index.gps_tweets_.begin() + at);
    std::copy(base.text_votes_.begin() + from, base.text_votes_.begin() + to,
              index.text_votes_.begin() + at);
    const uint32_t first = base.region_offsets_[row];
    const auto written = static_cast<uint32_t>(index.regions_.size());
    for (size_t r = row; r < end; ++r) {
      index.region_offsets_[out + (r - row) + 1] =
          base.region_offsets_[r + 1] - first + written;
    }
    index.regions_.insert(index.regions_.end(), base.regions_.begin() + first,
                          base.regions_.begin() + base.region_offsets_[end]);
    out += end - row;
    row = end;
  };
  for (const auto& [id, slot] : touched_) {
    copy_clean(static_cast<size_t>(
        std::lower_bound(base.ids_.begin() + static_cast<std::ptrdiff_t>(row),
                         base.ids_.end(), id) -
        base.ids_.begin()));
    const bool in_base = row < base_users && base.ids_[row] == id;
    STIR_CHECK(in_base == (slot < base_users) &&
               (out == 0 || index.ids_[out - 1] < id))
        << "user " << id << " has more than one evidence slot";
    if (in_base) ++row;
    const UserEvidence& user = slots_[slot];
    index.ids_[out] = id;
    index.tweets_[out] = user.tweets;
    index.gps_tweets_[out] = user.gps_tweets;
    index.text_votes_[out] = user.text_votes;
    index.regions_.insert(index.regions_.end(), user.regions.begin(),
                          user.regions.end());
    index.region_offsets_[out + 1] =
        static_cast<uint32_t>(index.regions_.size());
    ++out;
    changed_[slot] = false;
  }
  copy_clean(base_users);
  touched_.clear();
  return index;
}

std::shared_ptr<const InferenceIndex> EvidenceBuilder::Build() {
  published_ = std::make_shared<const InferenceIndex>(Snapshot());
  return published_;
}

void InferenceIndex::ResizeUsers(size_t users) {
  ids_.resize(users);
  tweets_.resize(users);
  gps_tweets_.resize(users);
  text_votes_.resize(users);
  region_offsets_.resize(users + 1);
  region_offsets_[0] = 0;
}

InferenceIndex InferenceIndex::Build(const twitter::Dataset& dataset,
                                     const geo::AdminDb& db) {
  EvidenceBuilder builder(&db);
  builder.Reserve(dataset.users().size());
  // Users register in dataset order, so a user's slot is its row.
  for (const twitter::User& user : dataset.users()) builder.AddUser(user.id);
  for (const twitter::Tweet& tweet : dataset.tweets()) {
    builder.AddTweet(static_cast<uint32_t>(dataset.FindUser(tweet.user) -
                                           dataset.users().data()),
                     tweet);
  }
  return builder.Snapshot();
}

InferenceIndex InferenceIndex::Build(const io::CorpusView& view,
                                     const geo::AdminDb& db) {
  common::ThreadPool pool(common::HardwareThreads());
  return Build(view, db, &pool);
}

InferenceIndex InferenceIndex::Build(const io::CorpusView& view,
                                     const geo::AdminDb& db,
                                     common::ThreadPool* pool) {
  const size_t rows = view.user_count();
  STIR_CHECK(rows <= kMaxOffset) << "too many user rows for one index";
  // (id, row) of every user row, put in (id, row) order unless the rows
  // already ascend.
  Column<IdRow> order(rows);
  const size_t shards = common::NumShards(pool, rows);
  std::vector<twitter::UserId> shard_min(shards), shard_max(shards);
  std::vector<char> shard_sorted(shards, 1);
  common::ParallelForShards(
      pool, rows, [&](size_t shard, size_t begin, size_t end) {
        twitter::UserId min = view.user_id(begin);
        twitter::UserId max = min;
        for (size_t row = begin; row < end; ++row) {
          const twitter::UserId id = view.user_id(row);
          order[row] = {id, static_cast<uint32_t>(row)};
          if (row > 0 && id < view.user_id(row - 1)) shard_sorted[shard] = 0;
          min = std::min(min, id);
          max = std::max(max, id);
        }
        shard_min[shard] = min;
        shard_max[shard] = max;
      });
  if (std::find(shard_sorted.begin(), shard_sorted.end(), 0) !=
      shard_sorted.end()) {
    RadixSortById(pool, *std::min_element(shard_min.begin(), shard_min.end()),
                  *std::max_element(shard_max.begin(), shard_max.end()),
                  &order);
  }

  // Where each distinct id's rows start in `order`, then the end.
  std::vector<uint32_t> starts;
  starts.reserve(rows + 1);
  for (size_t at = 0; at < rows; ++at) {
    if (at == 0 || order[at].id != order[at - 1].id) {
      starts.push_back(static_cast<uint32_t>(at));
    }
  }
  starts.push_back(static_cast<uint32_t>(rows));
  const size_t users = starts.size() - 1;

  InferenceIndex index;
  index.db_ = &db;
  index.ResizeUsers(users);
  const text::GazetteerMatcher matcher(&db);
  // Each shard folds its ids into their rows of the table, its regions
  // into its own array with shard-relative offsets.
  std::vector<std::vector<RegionEvidence>> shard_regions(
      common::NumShards(pool, users));
  common::ParallelForShards(
      pool, users, [&](size_t shard, size_t begin, size_t end) {
        EvidenceBuilder::Scratch scratch;
        UserEvidence user;
        std::vector<RegionEvidence>& regions = shard_regions[shard];
        for (size_t out = begin; out < end; ++out) {
          user.tweets = user.gps_tweets = user.text_votes = 0;
          user.regions.clear();
          for (uint32_t at = starts[out]; at < starts[out + 1]; ++at) {
            const size_t row = order[at].row;
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
          index.ids_[out] = order[starts[out]].id;
          index.tweets_[out] = user.tweets;
          index.gps_tweets_[out] = user.gps_tweets;
          index.text_votes_[out] = user.text_votes;
          regions.insert(regions.end(), user.regions.begin(),
                         user.regions.end());
          STIR_CHECK(regions.size() <= kMaxOffset)
              << "too many regions for one index";
          index.region_offsets_[out + 1] =
              static_cast<uint32_t>(regions.size());
        }
      });

  // Concatenate: a shard's regions follow those of the shards before it.
  std::vector<size_t> base(shard_regions.size() + 1, 0);
  for (size_t shard = 0; shard < shard_regions.size(); ++shard) {
    base[shard + 1] = base[shard] + shard_regions[shard].size();
  }
  STIR_CHECK(base.back() <= kMaxOffset) << "too many regions for one index";
  index.regions_.resize(base.back());
  common::ParallelForShards(
      pool, users, [&](size_t shard, size_t begin, size_t end) {
        std::copy(shard_regions[shard].begin(), shard_regions[shard].end(),
                  index.regions_.begin() +
                      static_cast<std::ptrdiff_t>(base[shard]));
        for (size_t out = begin; out < end; ++out) {
          index.region_offsets_[out + 1] += static_cast<uint32_t>(base[shard]);
        }
      });
  return index;
}

std::optional<UserEvidenceView> InferenceIndex::FindUser(
    twitter::UserId user) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), user);
  if (it == ids_.end() || *it != user) return std::nullopt;
  return UserAt(static_cast<size_t>(it - ids_.begin()));
}

int64_t InferenceIndex::MemoryBytes() const {
  const auto bytes = [](const auto& column) {
    return static_cast<int64_t>(column.capacity() * sizeof(column[0]));
  };
  return static_cast<int64_t>(sizeof(*this)) + bytes(ids_) + bytes(tweets_) +
         bytes(gps_tweets_) + bytes(text_votes_) + bytes(region_offsets_) +
         bytes(regions_);
}

}  // namespace stir::infer
