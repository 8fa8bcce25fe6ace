#ifndef STIR_STREAM_ENGINE_H_
#define STIR_STREAM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/grouping.h"
#include "core/refinement.h"
#include "core/study.h"
#include "core/study_config.h"
#include "geo/admin_db.h"
#include "geo/geocode_journal.h"
#include "geo/reverse_geocoder.h"
#include "infer/inference_index.h"
#include "serve/scheduler.h"
#include "serve/stream_backend.h"
#include "serve/study_index.h"
#include "stream/stream_journal.h"
#include "text/location_parser.h"
#include "twitter/model.h"

namespace stir::stream {

/// Knobs for the incremental stream engine (DESIGN.md §12). Durability
/// comes from the study config (`config.durability`).
struct StreamOptions {
  /// Auto-seal threshold: an epoch seals as soon as this many tweets have
  /// been ingested since the last seal (counting every tweet, GPS-tagged
  /// or not, so epoch boundaries depend only on the tweet log). 0
  /// disables auto-sealing — epochs seal only via SealEpoch(). A resumed
  /// run must use the crashed run's `epoch_size` for its epoch partition
  /// (and therefore its generation numbers) to line up.
  int64_t epoch_size = 0;
};

/// The incremental streaming study engine (DESIGN.md §12): accepts
/// appended users and tweets, folds each GPS tweet through the refinement
/// funnel exactly once (core::RefinementPipeline::FoldTweet — the same
/// fold the batch pipeline is a sum of), and on every epoch seal rebuilds
/// the grouping/aggregate stages over the accumulated state into a fresh
/// immutable serve::StudyIndex generation, swapped into an attached
/// serve::RequestScheduler RCU-style.
///
/// Determinism contract: after ingesting any prefix of a tweet log (in
/// log order, with the log's dataset indices as fault keys), a sealed
/// generation is byte-identical to the index a one-shot batch study would
/// build over that prefix — for any epoch partition and any thread count.
/// That holds because (a) folds are pure per (tweet, fault_key,
/// profile_region), (b) funnel counters are commutative sums of fold
/// deltas, (c) grouping is value-determined (multiplicity-desc,
/// lexicographic ties — arrival order of tweet_regions is irrelevant),
/// and (d) aggregation runs the shared core::AggregateGroups in user
/// arrival order. The one knob outside the contract is a finite geocoder
/// quota, exactly as for the batch pipeline's parallel mode.
///
/// Generation numbering: generation == epochs_sealed at the seal, with
/// the initial empty index as generation 0 — so a resumed engine reports
/// the same generation as the uninterrupted run.
///
/// Thread-safe: every public method takes the engine mutex. Lock order
/// when serving: scheduler admission mutex -> engine mutex -> scheduler
/// index mutex (SwapIndex), cycle-free.
class StreamEngine : public serve::StreamBackend {
 public:
  /// `db` must outlive the engine. `config` supplies the study pipeline
  /// knobs (threads, tie_break, refinement, geocoder, fault, retry, the
  /// *effective* obs sinks — resolve enable flags with obs::RunSinks
  /// before constructing — and durability). With
  /// `config.durability.checkpoint_dir` set the engine journals into
  /// that directory, and with `durability.resume` replays it; empty runs
  /// purely in memory (no crash safety).
  StreamEngine(const geo::AdminDb* db, const StudyConfig& config,
               const StreamOptions& options);
  ~StreamEngine() override;

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Opens (and on resume, replays) the journals and publishes the
  /// initial index generation. Must be called exactly once before any
  /// ingest. Journal problems degrade (log + run without the broken
  /// piece); the returned status is only for unusable configuration.
  Status Open();

  /// Attaches the scheduler that receives SwapIndex pushes on every seal
  /// (not owned; detach by attaching nullptr before the scheduler dies).
  /// The current generation is pushed immediately on attach.
  void AttachScheduler(serve::RequestScheduler* scheduler);

  /// Ingests one user. InvalidArgument on a negative or duplicate id.
  Status AddUser(const twitter::User& user);

  /// Ingests one tweet; its user must already be ingested. `fault_key`
  /// keys the geocoder fault schedule (callers replaying a dataset pass
  /// the tweet's dataset index so the schedule matches the batch study);
  /// -1 auto-assigns the engine's next monotonic key. May auto-seal.
  Status AddTweet(const twitter::Tweet& tweet, int64_t fault_key = -1);

  /// serve::StreamBackend: validates the whole batch first (rejected
  /// batches are applied not at all), then ingests users before tweets.
  /// Tweets get auto-assigned fault keys. May auto-seal mid-batch.
  serve::AppendOutcome Append(
      const std::vector<twitter::User>& users,
      const std::vector<twitter::Tweet>& tweets) override;

  /// Seals the current epoch: rebuilds groupings for users whose state
  /// changed, re-aggregates, builds a fresh immutable index generation,
  /// journals the seal marker, and pushes the swap to an attached
  /// scheduler. No-op (returning the live index) when nothing changed
  /// since the last seal.
  std::shared_ptr<const serve::StudyIndex> SealEpoch();

  /// The live (last sealed) generation; pins it for the caller.
  std::shared_ptr<const serve::StudyIndex> CurrentIndex() const;

  /// The live inference-evidence generation (DESIGN.md §16), republished
  /// at every seal alongside the study index so infer_user answers
  /// advance in lockstep with the lookups. Evidence folds are
  /// commutative integer counts and the snapshot is value-determined,
  /// so a sealed streaming generation is byte-identical to a batch
  /// InferenceIndex::Build over the same prefix.
  std::shared_ptr<const infer::InferenceIndex> CurrentInferIndex() const;

  /// Assembles the full study result over everything ingested so far —
  /// sealed or not — through the exact batch stages (GroupUser per final
  /// user in arrival order, core::AggregateGroups). The CLI's streaming
  /// mode reports from this, byte-identical to the batch report.
  core::StudyResult SnapshotResult();

  int64_t generation() const;
  int64_t epochs_sealed() const;
  int64_t pending_tweets() const;  ///< Tweets since the last seal.
  int64_t ingested_users() const;
  int64_t ingested_tweets() const;
  bool HasUser(twitter::UserId id) const;

 private:
  static constexpr uint32_t kNotFinal = 0xFFFFFFFFu;

  /// One ingested user, in arrival order. A user's row is also its
  /// evidence slot.
  struct UserRow {
    int64_t total_tweets = 0;
    /// The parsed profile district when the profile is well defined (a
    /// well-defined parse always names one), else kInvalidRegion.
    geo::RegionId profile_region = geo::kInvalidRegion;
    /// Index into finals_ once a tweet geocodes (kNotFinal until then).
    uint32_t final_index = kNotFinal;
  };

  /// A user in the final sample (>= 1 geocoded tweet, counted in the
  /// funnel): the fold target. Only final users carry tweet regions.
  struct FinalUser {
    uint32_t row = 0;    ///< Arrival row in users_.
    bool dirty = true;   ///< Its grouping in result_ is stale.
    core::RefinedUser refined;
  };

  /// What the profile gate needs of a parse.
  struct ProfileParse {
    text::LocationQuality quality = text::LocationQuality::kEmpty;
    geo::RegionId region = geo::kInvalidRegion;
  };

  Status AddUserLocked(const twitter::User& user, bool journal);
  Status AddTweetLocked(const twitter::Tweet& tweet, int64_t fault_key,
                        bool journal);
  /// Seal body; returns the built (or unchanged) generation.
  std::shared_ptr<const serve::StudyIndex> SealEpochLocked();
  /// Brings result_ up to date with everything ingested: merges the users
  /// who became final since into the arrival-ordered list, regroups the
  /// dirty ones (in parallel when configured), and re-aggregates.
  void AssembleLocked();
  /// Wraps a built index in the retirement-counting shared_ptr and makes
  /// it the live generation (no seal bookkeeping — shared by SealEpoch
  /// and resume).
  std::shared_ptr<const serve::StudyIndex> PublishIndexLocked(
      serve::StudyIndex index);
  void ReplayStreamJournalLocked(const StreamJournalReplay& replay);

  const geo::AdminDb* db_;
  StudyConfig config_;
  StreamOptions options_;
  text::LocationParser parser_;
  common::FaultInjector injector_;
  std::unique_ptr<geo::ReverseGeocoder> geocoder_;
  std::unique_ptr<core::RefinementPipeline> pipeline_;
  std::unique_ptr<common::ThreadPool> pool_;
  std::unique_ptr<geo::GeocodeJournal> geocode_journal_;
  std::unique_ptr<StreamJournal> journal_;
  bool opened_ = false;

  mutable std::mutex mu_;
  std::vector<UserRow> users_;  ///< Arrival order.
  std::unordered_map<twitter::UserId, uint32_t> row_of_;
  /// Profile gate memo, keyed by the exact profile bytes: each distinct
  /// string is parsed once (parsing is pure).
  std::unordered_map<std::string, ProfileParse> profile_memo_;
  /// Final users: the first result_.groupings.size() in arrival order,
  /// each beside its grouping; then those that became final since, in
  /// the order they did, until AssembleLocked merges them in.
  std::vector<FinalUser> finals_;
  /// The study result over finals_, kept across seals (groupings only;
  /// SnapshotResult adds the refined rows to its copy).
  core::StudyResult result_;
  core::FunnelStats stats_;
  /// Inference evidence accumulator, fed by the same ingest path as the
  /// study state (guarded by mu_ like everything else here).
  std::unique_ptr<infer::EvidenceBuilder> evidence_;
  std::shared_ptr<const serve::StudyIndex> current_index_;
  std::shared_ptr<const infer::InferenceIndex> current_infer_index_;
  serve::RequestScheduler* scheduler_ = nullptr;
  int64_t generation_ = 0;
  int64_t epochs_sealed_ = 0;
  int64_t pending_tweets_ = 0;
  bool dirty_ = false;  ///< Any ingest since the last seal.
  int64_t ingested_tweets_ = 0;
  int64_t next_fault_key_ = 0;
  bool journal_append_failed_ = false;

  // Observability (null when config.obs.metrics is null). The retirement
  // counter/gauge are captured by value into each generation's deleter,
  // so the registry must outlive every pinned generation.
  obs::Counter* m_epochs_sealed_ = nullptr;
  obs::Counter* m_seal_us_ = nullptr;
  obs::Counter* m_seal_assemble_us_ = nullptr;
  obs::Counter* m_seal_index_us_ = nullptr;
  obs::Counter* m_seal_evidence_us_ = nullptr;
  obs::Counter* m_profile_parses_ = nullptr;
  obs::Counter* m_retired_ = nullptr;
  obs::Gauge* m_live_ = nullptr;
  obs::Gauge* m_pending_ = nullptr;
  obs::Counter* m_ingested_users_ = nullptr;
  obs::Counter* m_ingested_tweets_ = nullptr;
  obs::Histogram* m_swap_us_ = nullptr;
};

}  // namespace stir::stream

#endif  // STIR_STREAM_ENGINE_H_
