#ifndef STIR_INFER_INFERENCE_INDEX_H_
#define STIR_INFER_INFERENCE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
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

/// Everything the inference strategies may see about one user.
struct UserEvidence {
  twitter::UserId user = twitter::kInvalidUser;
  /// Materialized tweet rows observed (GPS + sampled plain tweets).
  int64_t tweets = 0;
  int64_t gps_tweets = 0;   ///< Total located GPS tweets.
  int64_t text_votes = 0;   ///< Total unambiguous text mentions.
  /// Per-district evidence, ascending by region id (value-determined).
  std::vector<RegionEvidence> regions;
};

class InferenceIndex;

/// Incremental evidence accumulator: the one ingest path shared by the
/// batch builders and the streaming engine, so a sealed streaming index
/// is byte-identical to a batch build over the same prefix. Thread
/// compatibility matches the stream engine's: callers serialize Add*
/// externally; Build() snapshots may be taken between Adds.
class EvidenceBuilder {
 public:
  /// `db` must outlive the builder and every index built from it.
  explicit EvidenceBuilder(const geo::AdminDb* db);

  /// Registers a user (evidence-blind: only the id is read). Idempotent.
  void AddUser(twitter::UserId user);

  /// Folds one tweet (see Fold). Tweets of unregistered users register
  /// them implicitly.
  void AddTweet(const twitter::Tweet& tweet);

  /// Immutable value-determined snapshot: users ascending by id, regions
  /// ascending by id within each user. A linear copy of the table, after
  /// sorting only the users added since the previous Build().
  std::shared_ptr<const InferenceIndex> Build() const;

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
  /// Adds `from`'s evidence into `into` (the same user's slot).
  static void Merge(const UserEvidence& from, UserEvidence* into);

  /// Batch builds know their user count up front.
  void Reserve(size_t users);
  /// The user's slot, created on first sight.
  UserEvidence& Slot(twitter::UserId user);
  /// The user's evidence for `region`, inserted in region order.
  static RegionEvidence& RegionOf(UserEvidence& user, geo::RegionId region);
  /// What Build() publishes, as a value.
  InferenceIndex Snapshot() const;

  const geo::AdminDb* db_;
  text::GazetteerMatcher matcher_;
  /// One slot per user in arrival order, each already in its published
  /// form: regions ascending by id, totals kept as tweets fold.
  std::vector<UserEvidence> slots_;
  std::unordered_map<twitter::UserId, uint32_t> slot_of_;
  /// (user id, slot) ascending, for the slots that existed at the last
  /// snapshot; later slots are sorted and merged in by the next one.
  mutable std::vector<std::pair<twitter::UserId, uint32_t>> id_order_;
  Scratch scratch_;
};

/// Immutable per-user evidence index, the inference twin of
/// serve::StudyIndex: built once (or republished per streaming epoch)
/// and shared read-only across serving workers. Only tweet evidence
/// enters; profile strings and ground truth never do.
class InferenceIndex {
 public:
  /// Batch build over a row-oriented dataset.
  static InferenceIndex Build(const twitter::Dataset& dataset,
                              const geo::AdminDb& db);
  /// Batch build over a zero-copy v3 corpus view (no materialization),
  /// sharded on a pool of std::thread::hardware_concurrency() workers.
  static InferenceIndex Build(const io::CorpusView& view,
                              const geo::AdminDb& db);
  /// The same build on `pool` (null or inline: one shard). User rows are
  /// split into contiguous shards, each folding its users' tweets (CSR
  /// order) into their own slots; the slots are then moved into id
  /// order, a repeated user id folding into one. Byte-identical for any
  /// shard count.
  static InferenceIndex Build(const io::CorpusView& view,
                              const geo::AdminDb& db,
                              common::ThreadPool* pool);

  InferenceIndex() = default;

  /// O(log users); nullptr when the user is unknown.
  const UserEvidence* FindUser(twitter::UserId user) const;

  const std::vector<UserEvidence>& users() const { return users_; }
  size_t user_count() const { return users_.size(); }
  bool empty() const { return users_.empty(); }

  /// The gazetteer the evidence was geocoded against (display names for
  /// responses and reports). Null only for a default-constructed index.
  const geo::AdminDb* db() const { return db_; }

  int64_t MemoryBytes() const;

 private:
  friend class EvidenceBuilder;

  const geo::AdminDb* db_ = nullptr;
  /// Ascending by user id.
  std::vector<UserEvidence> users_;
};

}  // namespace stir::infer

#endif  // STIR_INFER_INFERENCE_INDEX_H_
