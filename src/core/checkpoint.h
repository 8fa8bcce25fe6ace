#ifndef STIR_CORE_CHECKPOINT_H_
#define STIR_CORE_CHECKPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/refinement.h"
#include "io/options.h"

namespace stir {
struct StudyConfig;
}

namespace stir::io {
class CorpusView;
}

namespace stir::core {

/// Refinement progress of one shard: everything needed to restart the
/// shard's loop at `next_user` as if it had never stopped.
struct ShardProgress {
  /// Absolute corpus user row the shard resumes at (== its shard `end`
  /// once the shard has finished).
  int64_t next_user = 0;
  bool done = false;
  /// Per-user funnel counters accumulated over *completed* users only —
  /// an in-flight user's partial counts are never persisted, so its work
  /// simply re-runs (deterministically) after a crash.
  FunnelStats stats;
  std::vector<RefinedUser> refined;
};

/// The durable study state (snapshot magic "STIRCKP1"). One snapshot file
/// holds either mid-refinement shard progress or the completed
/// refinement output; grouping and aggregation are cheap, deterministic
/// functions of the refined vector, so they are recomputed on resume
/// rather than persisted.
struct StudyCheckpoint {
  enum Stage : uint32_t {
    kRefinementInProgress = 0,
    kRefinementDone = 1,
  };

  Stage stage = kRefinementInProgress;
  /// Guards against resuming against the wrong inputs: a mismatch means
  /// the checkpoint describes some other run, and resume degrades to a
  /// fresh start (never to silently wrong output).
  uint64_t dataset_fingerprint = 0;
  uint64_t config_fingerprint = 0;
  /// FaultInjector sequence position (Next()/NextIndex() stream), so
  /// sequence-indexed fault schedules continue instead of restarting.
  int64_t fault_next_index = 0;
  /// kRefinementInProgress payload.
  std::vector<ShardProgress> shards;
  /// kRefinementDone payload.
  FunnelStats funnel;
  std::vector<RefinedUser> refined;

  std::string Serialize() const;
  static StatusOr<StudyCheckpoint> Deserialize(std::string_view payload);
};

/// Stable fingerprints for resume validation. The corpus fingerprint
/// covers the user table and the tweet counts, so it is the same for a
/// corpus file and for the in-memory image of the dataset it holds.
uint64_t CorpusFingerprint(const io::CorpusView& corpus);
/// Hashes the result-affecting config knobs (threads, tie-break,
/// refinement, fault schedule, retry, geocoder quota/cache). Durability,
/// crash-point, and observability knobs are deliberately excluded: the
/// crashed run and its resume differ in exactly those.
uint64_t ConfigFingerprint(const StudyConfig& config);

/// Atomic persistence of StudyCheckpoint under a checkpoint directory.
class CheckpointManager {
 public:
  CheckpointManager(std::string dir, bool fsync);

  std::string checkpoint_path() const;
  Status Save(const StudyCheckpoint& checkpoint);
  /// IOError when no checkpoint exists; InvalidArgument when the file is
  /// corrupt (bad magic/CRC/payload).
  StatusOr<StudyCheckpoint> Load() const;

  int64_t writes() const { return writes_; }

 private:
  std::string dir_;
  bool fsync_;
  int64_t writes_ = 0;
};

/// Orchestrates checkpointing for one pipeline run: holds the restored
/// state (if any), collects per-shard progress as workers report it, and
/// writes a consistent snapshot every `checkpoint_every_users` completed
/// users per shard (and at every shard completion).
///
/// Thread model: each shard is owned by one worker thread;
/// NoteUserProcessed is called only by the owning worker, which serializes
/// all shards' latest *published* progress under one mutex. Workers
/// publish copies, so a snapshot taken while other shards keep running is
/// internally consistent (every shard at some completed-user boundary).
class StudyCheckpointer {
 public:
  StudyCheckpointer(const io::DurabilityOptions& options,
                    uint64_t dataset_fingerprint, uint64_t config_fingerprint);

  /// Loads + validates a prior checkpoint (resume mode). Returns true
  /// when restored state is available; false (with a warning logged) on
  /// missing/corrupt/mismatched checkpoints — the degrade-to-fresh path.
  bool TryRestore();

  bool restored() const { return has_restored_; }
  StudyCheckpoint::Stage restored_stage() const { return restored_.stage; }
  int64_t restored_fault_next_index() const {
    return restored_.fault_next_index;
  }
  /// Completed-refinement payload (valid when restored() and the stage is
  /// kRefinementDone).
  const FunnelStats& restored_funnel() const { return restored_.funnel; }
  std::vector<RefinedUser> TakeRestoredRefined() {
    return std::move(restored_.refined);
  }

  /// Prepares the progress table for `shard_count` shards. Restored
  /// mid-refinement progress is kept only when its shard count matches
  /// (a different thread count re-partitions users; starting fresh is
  /// always correct, merely slower).
  void InitShards(size_t shard_count);

  /// Restored progress for one shard (null when starting fresh).
  const ShardProgress* RestoredShard(size_t shard) const;
  /// Moves the restored shard's refined users out (the worker extends it).
  std::vector<RefinedUser> TakeRestoredShardRefined(size_t shard);

  /// Reports one completed user. `stats`/`refined` are the shard's
  /// *complete* progress so far (not deltas). Writes a snapshot on the
  /// cadence boundary, when the shard finishes, or when a halt was
  /// requested (so the halt point is always durable).
  void NoteUserProcessed(size_t shard, int64_t next_user,
                         const FunnelStats& stats,
                         const std::vector<RefinedUser>& refined,
                         bool shard_done);

  /// Records the completed refinement stage (funnel globals + merged
  /// refined vector).
  Status SaveRefinementDone(const FunnelStats& funnel,
                            const std::vector<RefinedUser>& refined);

  /// Test hook: true once halt_after_users users have been processed
  /// (the pipeline then stops cleanly, leaving checkpoints behind as a
  /// simulated crash).
  bool ShouldStop() const;
  bool halted() const { return halted_.load(std::memory_order_relaxed); }

  /// Sampled by snapshots; set by the study before the pipeline runs.
  void set_fault_injector(common::FaultInjector* injector) {
    injector_ = injector;
  }

  int64_t snapshot_writes() const { return manager_.writes(); }

 private:
  void SaveLocked();  // mu_ must be held.

  io::DurabilityOptions options_;
  CheckpointManager manager_;
  uint64_t dataset_fingerprint_;
  uint64_t config_fingerprint_;
  common::FaultInjector* injector_ = nullptr;

  bool has_restored_ = false;
  StudyCheckpoint restored_;

  std::mutex mu_;
  std::vector<ShardProgress> progress_;        // guarded by mu_
  std::vector<int64_t> users_since_snapshot_;  // owner-thread only, per shard

  std::atomic<int64_t> total_processed_{0};
  std::atomic<bool> halted_{false};
};

}  // namespace stir::core

#endif  // STIR_CORE_CHECKPOINT_H_
