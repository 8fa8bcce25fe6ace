#ifndef STIR_INFER_INFERENCE_INDEX_H_
#define STIR_INFER_INFERENCE_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "geo/admin_db.h"
#include "text/gazetteer_matcher.h"
#include "text/normalize.h"
#include "twitter/dataset.h"
#include "twitter/model.h"

namespace stir::io {
class CorpusView;
}

namespace stir::infer {

/// ---------------------------------------------------------------------
/// stir::infer — home-location inference from tweet evidence alone
/// (DESIGN.md §16).
///
/// The paper *measures* profile↔GPS agreement; this subsystem inverts
/// the question ("A survey of location inference techniques on Twitter",
/// PAPERS.md): predict each user's home district from what they tweeted,
/// never from what they claimed. The blindness contract is structural:
/// evidence extraction reads tweet GPS points, tweet timestamps, and
/// tweet text — User::profile_location and the generator's ground truth
/// are not reachable from this layer, and a test corrupts both and
/// asserts byte-identical predictions.
/// ---------------------------------------------------------------------

/// Evidence about one user in one district. All counts are plain
/// integers folded commutatively, so any ingest order (batch dataset
/// walk, columnar corpus scan, streaming arrival) produces the same
/// values.
struct RegionEvidence {
  geo::RegionId region = geo::kInvalidRegion;
  /// Geotagged tweets reverse-geocoded into this district.
  int64_t gps_tweets = 0;
  /// Subset posted during the shared night window (stir::IsNightHour).
  int64_t night_gps_tweets = 0;
  /// Unambiguous gazetteer mentions of this district in tweet bodies.
  int64_t text_votes = 0;
};

/// Everything the inference strategies may see about one user: the
/// published form, a view into an InferenceIndex's flat table.
struct UserEvidenceView {
  twitter::UserId user = twitter::kInvalidUser;
  /// Materialized tweet rows observed (GPS + sampled plain tweets).
  int64_t tweets = 0;
  int64_t gps_tweets = 0;   ///< Total located GPS tweets.
  int64_t text_votes = 0;   ///< Total unambiguous text mentions.
  /// Per-district evidence, ascending by region id (value-determined).
  std::span<const RegionEvidence> regions;
};

/// One user's evidence while it accumulates: the builders' mutable slot,
/// viewable as the published form.
struct UserEvidence {
  twitter::UserId user = twitter::kInvalidUser;
  int64_t tweets = 0;
  int64_t gps_tweets = 0;
  int64_t text_votes = 0;
  /// Ascending by region id.
  std::vector<RegionEvidence> regions;

  operator UserEvidenceView() const {
    return {user, tweets, gps_tweets, text_votes, regions};
  }
};

class InferenceIndex;

/// A std::vector whose resize leaves new trivially constructible
/// elements uninitialized: the batch build writes every element of its
/// columns on the pool, so their pages are first touched, in parallel,
/// by the shard that fills them rather than zeroed serially up front.
template <typename T>
struct UninitializedAllocator : std::allocator<T> {
  using value_type = T;
  UninitializedAllocator() = default;
  template <typename U>
  UninitializedAllocator(const UninitializedAllocator<U>&) {}
  template <typename U>
  void construct(U* at) {
    ::new (static_cast<void*>(at)) U;
  }
  template <typename U, typename... Args>
  void construct(U* at, Args&&... args) {
    ::new (static_cast<void*>(at)) U(std::forward<Args>(args)...);
  }
};
template <typename T>
using Column = std::vector<T, UninitializedAllocator<T>>;

/// A user id and the row (or builder slot) it names: what the builds
/// sort into id order.
struct IdRow {
  twitter::UserId id;
  uint32_t row;
};

/// Incremental evidence accumulator: the one ingest path shared by the
/// batch builders and the streaming engine, so a sealed streaming index
/// is byte-identical to a batch build over the same prefix. Users are
/// addressed by slot, the dense arrival index AddUser hands out; mapping
/// ids to slots is the caller's (the stream engine's user table, the
/// dataset build's map). Thread compatibility matches the stream
/// engine's: callers serialize every call externally.
class EvidenceBuilder {
 public:
  /// `db` must outlive the builder and every index built from it.
  explicit EvidenceBuilder(const geo::AdminDb* db);

  /// Appends a slot for `user` (evidence-blind: only the id is read) and
  /// returns it; slots count up from 0 in call order. Ids must be
  /// distinct (checked by the next Build()).
  uint32_t AddUser(twitter::UserId user);

  /// Folds one tweet (see Fold) into `slot`, which AddUser returned.
  void AddTweet(uint32_t slot, const twitter::Tweet& tweet);

  /// The next immutable generation, value-determined: users ascending by
  /// id, regions ascending by id within each user. It is written in one
  /// pass over the previous Build()'s generation: clean runs of rows are
  /// copied, and only the slots added or folded into since — sorted by
  /// id — are written from their accumulators.
  std::shared_ptr<const InferenceIndex> Build();

  int64_t user_count() const { return static_cast<int64_t>(slots_.size()); }

 private:
  friend class InferenceIndex;

  /// Per-tweet scratch, reused so a fold allocates nothing once warm.
  struct Scratch {
    text::JoinedTokens tokens;
    std::vector<text::PhraseMatch> matches;
  };

  /// The one tweet fold, shared by AddTweet and the sharded batch build:
  /// a GPS fix (`gps`, null without one) is reverse-geocoded through
  /// AdminDb::Locate (deterministic, fault-free — unlike the study's
  /// quota/fault-injected geocoder, so inference evidence never depends
  /// on a fault schedule), the night window is derived from `time`, and
  /// `text` is tokenized and gazetteer-matched for unambiguous district
  /// mentions.
  static void Fold(const geo::AdminDb& db,
                   const text::GazetteerMatcher& matcher,
                   const geo::LatLng* gps, SimTime time, std::string_view text,
                   Scratch* scratch, UserEvidence* user);

  /// Batch builds know their user count up front.
  void Reserve(size_t users);
  /// The user's evidence for `region`, inserted in region order.
  static RegionEvidence& RegionOf(UserEvidence& user, geo::RegionId region);
  /// Build()'s generation, as a value; it forgets which slots changed, so
  /// only Build(), which keeps the result as the next merge's base, and a
  /// builder's one and final snapshot may call it.
  InferenceIndex Snapshot();

  const geo::AdminDb* db_;
  text::GazetteerMatcher matcher_;
  /// One slot per user in arrival order, each already in its published
  /// form: regions ascending by id, totals kept as tweets fold.
  std::vector<UserEvidence> slots_;
  /// Region entries over all slots: the size of a snapshot's region array.
  size_t region_count_ = 0;
  /// The slots added or folded into since the last snapshot, each once
  /// (`changed_[slot]` marks them).
  Column<IdRow> touched_;
  std::vector<bool> changed_;
  /// The last Build()'s generation: the base the next one is merged from.
  std::shared_ptr<const InferenceIndex> published_;
  Scratch scratch_;
};

/// Immutable per-user evidence index, the inference twin of
/// serve::StudyIndex: built once (or republished per streaming epoch)
/// and shared read-only across serving workers. Only tweet evidence
/// enters; profile strings and ground truth never do.
///
/// One flat table in the arena's CSR layout (DESIGN.md §14): one column
/// per user field, ascending by user id, and one region array that
/// `region_offsets_` slices per user.
class InferenceIndex {
 public:
  /// Batch build over a row-oriented dataset: one EvidenceBuilder fed in
  /// dataset order, the serial reference the sharded build is compared
  /// against.
  static InferenceIndex Build(const twitter::Dataset& dataset,
                              const geo::AdminDb& db);
  /// Batch build over a zero-copy v3 corpus view (no materialization),
  /// sharded on a pool of common::HardwareThreads() workers.
  static InferenceIndex Build(const io::CorpusView& view,
                              const geo::AdminDb& db);
  /// The same build on `pool` (null or inline: one shard). The user
  /// rows are put in id order on the pool (a stable radix sort, skipped
  /// when the ids already ascend); each shard then folds its distinct
  /// ids' tweets (CSR order, a repeated id's rows in row order) straight
  /// into its rows of the table, and the shards' region arrays are
  /// concatenated. Byte-identical for any shard count.
  static InferenceIndex Build(const io::CorpusView& view,
                              const geo::AdminDb& db,
                              common::ThreadPool* pool);

  InferenceIndex() = default;

  /// O(log users); nullopt when the user is unknown.
  std::optional<UserEvidenceView> FindUser(twitter::UserId user) const;

  /// The user at `row` (rows ascend by user id).
  UserEvidenceView UserAt(size_t row) const {
    const uint32_t begin = region_offsets_[row];
    return {ids_[row], tweets_[row], gps_tweets_[row], text_votes_[row],
            std::span<const RegionEvidence>(regions_).subspan(
                begin, region_offsets_[row + 1] - begin)};
  }
  /// Every user, ascending by id, as a random-access range of views.
  auto users() const {
    return std::views::iota(size_t{0}, user_count()) |
           std::views::transform([this](size_t row) { return UserAt(row); });
  }
  size_t user_count() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// The gazetteer the evidence was geocoded against (display names for
  /// responses and reports). Null only for a default-constructed index.
  const geo::AdminDb* db() const { return db_; }

  int64_t MemoryBytes() const;

 private:
  friend class EvidenceBuilder;

  /// Sizes the user columns for `users` users, leaving them unwritten
  /// but for the leading zero offset.
  void ResizeUsers(size_t users);

  const geo::AdminDb* db_ = nullptr;
  Column<twitter::UserId> ids_;
  Column<int64_t> tweets_;
  Column<int64_t> gps_tweets_;
  Column<int64_t> text_votes_;
  /// user_count() + 1 ascending offsets into regions_: user `row` owns
  /// [region_offsets_[row], region_offsets_[row + 1]).
  Column<uint32_t> region_offsets_ = {0};
  std::vector<RegionEvidence> regions_;
};

}  // namespace stir::infer

#endif  // STIR_INFER_INFERENCE_INDEX_H_
