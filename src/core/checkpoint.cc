#include "core/checkpoint.h"

#include <cstring>

#include "common/hash.h"
#include "common/logging.h"
#include "core/study_config.h"
#include "io/atomic_file.h"
#include "io/corpus.h"
#include "io/serialize.h"
#include "io/snapshot.h"

namespace stir::core {

namespace {

constexpr std::string_view kCheckpointMagic = "STIRCKP1";
constexpr char kCheckpointFileName[] = "study.ckpt";

void PutFunnel(io::BinaryWriter& w, const FunnelStats& stats) {
  w.I64(stats.crawled_users);
  for (int q = 0; q < 5; ++q) w.I64(stats.quality_counts[q]);
  w.I64(stats.well_defined_users);
  w.I64(stats.total_tweets);
  w.I64(stats.gps_tweets);
  w.I64(stats.geocode_failures);
  w.I64(stats.final_users);
  w.Bool(stats.fault_injection_enabled);
  w.I64(stats.geocode_faulted);
  w.I64(stats.geocode_retried);
  w.I64(stats.geocode_degraded);
  w.I64(stats.backoff_ms);
  w.I64(stats.corrupt_window_users);
}

bool GetFunnel(io::BinaryReader& r, FunnelStats* stats) {
  bool ok = r.I64(&stats->crawled_users);
  for (int q = 0; q < 5; ++q) ok = ok && r.I64(&stats->quality_counts[q]);
  ok = ok && r.I64(&stats->well_defined_users);
  ok = ok && r.I64(&stats->total_tweets);
  ok = ok && r.I64(&stats->gps_tweets);
  ok = ok && r.I64(&stats->geocode_failures);
  ok = ok && r.I64(&stats->final_users);
  ok = ok && r.Bool(&stats->fault_injection_enabled);
  ok = ok && r.I64(&stats->geocode_faulted);
  ok = ok && r.I64(&stats->geocode_retried);
  ok = ok && r.I64(&stats->geocode_degraded);
  ok = ok && r.I64(&stats->backoff_ms);
  ok = ok && r.I64(&stats->corrupt_window_users);
  return ok;
}

void PutRefinedUser(io::BinaryWriter& w, const RefinedUser& user) {
  w.I64(user.user);
  w.I32(user.profile_region);
  w.I64(user.total_tweets);
  w.U64(user.tweet_regions.size());
  for (geo::RegionId region : user.tweet_regions) w.I32(region);
}

bool GetRefinedUser(io::BinaryReader& r, RefinedUser* user) {
  int64_t id = twitter::kInvalidUser;
  int32_t profile_region = geo::kInvalidRegion;
  uint64_t count = 0;
  if (!r.I64(&id) || !r.I32(&profile_region) || !r.I64(&user->total_tweets) ||
      !r.U64(&count) || count > r.remaining() / sizeof(int32_t)) {
    return false;
  }
  user->user = id;
  user->profile_region = profile_region;
  user->tweet_regions.resize(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    int32_t region = geo::kInvalidRegion;
    if (!r.I32(&region)) return false;
    user->tweet_regions[static_cast<size_t>(i)] = region;
  }
  return true;
}

void PutRefinedUsers(io::BinaryWriter& w,
                     const std::vector<RefinedUser>& users) {
  w.U64(users.size());
  for (const RefinedUser& user : users) PutRefinedUser(w, user);
}

bool GetRefinedUsers(io::BinaryReader& r, std::vector<RefinedUser>* users) {
  uint64_t count = 0;
  if (!r.U64(&count) || count > r.remaining()) return false;
  users->resize(static_cast<size_t>(count));
  for (RefinedUser& user : *users) {
    if (!GetRefinedUser(r, &user)) return false;
  }
  return true;
}

uint64_t HashDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return HashCombine(h, bits);
}

}  // namespace

std::string StudyCheckpoint::Serialize() const {
  io::BinaryWriter w;
  w.U32(static_cast<uint32_t>(stage));
  w.U64(dataset_fingerprint);
  w.U64(config_fingerprint);
  w.I64(fault_next_index);
  if (stage == kRefinementInProgress) {
    w.U64(shards.size());
    for (const ShardProgress& shard : shards) {
      w.I64(shard.next_user);
      w.Bool(shard.done);
      PutFunnel(w, shard.stats);
      PutRefinedUsers(w, shard.refined);
    }
  } else {
    PutFunnel(w, funnel);
    PutRefinedUsers(w, refined);
  }
  return w.Take();
}

StatusOr<StudyCheckpoint> StudyCheckpoint::Deserialize(
    std::string_view payload) {
  Status corrupt = Status::InvalidArgument("corrupt study checkpoint payload");
  io::BinaryReader r(payload);
  StudyCheckpoint checkpoint;
  uint32_t stage = 0;
  if (!r.U32(&stage) || stage > kRefinementDone ||
      !r.U64(&checkpoint.dataset_fingerprint) ||
      !r.U64(&checkpoint.config_fingerprint) ||
      !r.I64(&checkpoint.fault_next_index)) {
    return corrupt;
  }
  checkpoint.stage = static_cast<Stage>(stage);
  if (checkpoint.stage == kRefinementInProgress) {
    uint64_t shard_count = 0;
    if (!r.U64(&shard_count) || shard_count > r.remaining()) return corrupt;
    checkpoint.shards.resize(static_cast<size_t>(shard_count));
    for (ShardProgress& shard : checkpoint.shards) {
      if (!r.I64(&shard.next_user) || !r.Bool(&shard.done) ||
          !GetFunnel(r, &shard.stats) || !GetRefinedUsers(r, &shard.refined)) {
        return corrupt;
      }
    }
  } else {
    if (!GetFunnel(r, &checkpoint.funnel) ||
        !GetRefinedUsers(r, &checkpoint.refined)) {
      return corrupt;
    }
  }
  if (!r.Done()) return corrupt;
  return checkpoint;
}

uint64_t CorpusFingerprint(const io::CorpusView& corpus) {
  uint64_t h = Fnv1a64("stir.dataset");
  h = HashCombine(h, corpus.user_count());
  h = HashCombine(h, static_cast<uint64_t>(corpus.total_tweet_count()));
  h = HashCombine(h, static_cast<uint64_t>(corpus.gps_tweet_count()));
  for (size_t row = 0; row < corpus.user_count(); ++row) {
    h = HashCombine(h, static_cast<uint64_t>(corpus.user_id(row)));
    h = HashCombine(h, static_cast<uint64_t>(corpus.user_total_tweets(row)));
    h = HashCombine(h, Fnv1a64(corpus.user_profile_location(row)));
  }
  h = HashCombine(h, corpus.tweet_count());
  return Mix64(h);
}

uint64_t ConfigFingerprint(const StudyConfig& config) {
  uint64_t h = Fnv1a64("stir.config");
  h = HashCombine(h, static_cast<uint64_t>(config.threads));
  h = HashCombine(h, static_cast<uint64_t>(config.tie_break));
  h = HashCombine(h,
                  static_cast<uint64_t>(config.refinement.faithful_xml_pipeline));
  h = HashCombine(
      h, static_cast<uint64_t>(config.refinement.degraded_text_fallback));
  h = HashCombine(h, static_cast<uint64_t>(config.geocoder.enable_cache));
  // Once a settable knob; still hashed so existing checkpoints resume.
  h = HashCombine(h, static_cast<uint64_t>(geo::kGeocodeCachePrecision));
  h = HashCombine(h, static_cast<uint64_t>(config.geocoder.quota));
  h = HashCombine(h, config.fault.seed);
  h = HashDouble(h, config.fault.error_rate);
  h = HashCombine(h, static_cast<uint64_t>(config.fault.burst_start));
  h = HashCombine(h, static_cast<uint64_t>(config.fault.burst_length));
  h = HashCombine(h, static_cast<uint64_t>(config.fault.burst_period));
  h = HashCombine(h, static_cast<uint64_t>(config.fault.exhaust_after));
  h = HashDouble(h, config.fault.latency_spike_rate);
  h = HashCombine(h, static_cast<uint64_t>(config.fault.latency_spike_ms));
  h = HashCombine(h, static_cast<uint64_t>(config.retry.max_attempts));
  h = HashCombine(h, static_cast<uint64_t>(config.retry.base_backoff_ms));
  h = HashDouble(h, config.retry.multiplier);
  h = HashCombine(h, static_cast<uint64_t>(config.retry.max_backoff_ms));
  h = HashDouble(h, config.retry.jitter);
  h = HashCombine(h, config.retry.seed);
  h = HashCombine(h,
                  static_cast<uint64_t>(config.retry.retry_resource_exhausted));
  return Mix64(h);
}

CheckpointManager::CheckpointManager(std::string dir, bool fsync)
    : dir_(std::move(dir)), fsync_(fsync) {}

std::string CheckpointManager::checkpoint_path() const {
  return dir_ + "/" + kCheckpointFileName;
}

Status CheckpointManager::Save(const StudyCheckpoint& checkpoint) {
  Status s = io::WriteSnapshotFile(checkpoint_path(), kCheckpointMagic,
                                   checkpoint.Serialize(), fsync_);
  if (s.ok()) ++writes_;
  return s;
}

StatusOr<StudyCheckpoint> CheckpointManager::Load() const {
  STIR_ASSIGN_OR_RETURN(std::string payload,
                        io::ReadSnapshotFile(checkpoint_path(),
                                             kCheckpointMagic));
  return StudyCheckpoint::Deserialize(payload);
}

StudyCheckpointer::StudyCheckpointer(const io::DurabilityOptions& options,
                                     uint64_t dataset_fingerprint,
                                     uint64_t config_fingerprint)
    : options_(options),
      manager_(options.checkpoint_dir, options.fsync),
      dataset_fingerprint_(dataset_fingerprint),
      config_fingerprint_(config_fingerprint) {}

bool StudyCheckpointer::TryRestore() {
  if (!io::PathExists(manager_.checkpoint_path())) return false;
  StatusOr<StudyCheckpoint> loaded = manager_.Load();
  if (!loaded.ok()) {
    STIR_LOG(Warning) << "study checkpoint unusable, starting fresh: "
                      << loaded.status().message();
    return false;
  }
  if (loaded->dataset_fingerprint != dataset_fingerprint_ ||
      loaded->config_fingerprint != config_fingerprint_) {
    STIR_LOG(Warning) << "study checkpoint is for a different dataset or "
                         "configuration, starting fresh";
    return false;
  }
  restored_ = *std::move(loaded);
  has_restored_ = true;
  return true;
}

void StudyCheckpointer::InitShards(size_t shard_count) {
  std::lock_guard<std::mutex> lock(mu_);
  progress_.assign(shard_count, ShardProgress{});
  users_since_snapshot_.assign(shard_count, 0);
  if (has_restored_ && restored_.stage == StudyCheckpoint::kRefinementInProgress) {
    if (restored_.shards.size() == shard_count) {
      progress_ = restored_.shards;
    } else {
      STIR_LOG(Warning) << "study checkpoint has " << restored_.shards.size()
                        << " shards but this run partitions into "
                        << shard_count << "; restarting refinement";
      has_restored_ = false;
      restored_ = StudyCheckpoint{};
    }
  }
}

const ShardProgress* StudyCheckpointer::RestoredShard(size_t shard) const {
  if (!has_restored_ ||
      restored_.stage != StudyCheckpoint::kRefinementInProgress ||
      shard >= restored_.shards.size()) {
    return nullptr;
  }
  return &restored_.shards[shard];
}

std::vector<RefinedUser> StudyCheckpointer::TakeRestoredShardRefined(
    size_t shard) {
  const ShardProgress* restored = RestoredShard(shard);
  if (restored == nullptr) return {};
  return std::move(restored_.shards[shard].refined);
}

void StudyCheckpointer::NoteUserProcessed(
    size_t shard, int64_t next_user, const FunnelStats& stats,
    const std::vector<RefinedUser>& refined, bool shard_done) {
  int64_t total = total_processed_.fetch_add(1, std::memory_order_relaxed) + 1;
  bool halt = options_.halt_after_users >= 0 &&
              total >= options_.halt_after_users;
  if (halt) halted_.store(true, std::memory_order_relaxed);

  int64_t& pending = users_since_snapshot_[shard];
  ++pending;
  if (!shard_done && !halt && pending < options_.checkpoint_every_users) {
    return;
  }
  pending = 0;

  std::lock_guard<std::mutex> lock(mu_);
  ShardProgress& slot = progress_[shard];
  slot.next_user = next_user;
  slot.done = shard_done;
  slot.stats = stats;
  slot.refined = refined;
  SaveLocked();
}

void StudyCheckpointer::SaveLocked() {
  StudyCheckpoint checkpoint;
  checkpoint.stage = StudyCheckpoint::kRefinementInProgress;
  checkpoint.dataset_fingerprint = dataset_fingerprint_;
  checkpoint.config_fingerprint = config_fingerprint_;
  checkpoint.fault_next_index =
      injector_ != nullptr ? injector_->next_index_value() : 0;
  checkpoint.shards = progress_;
  Status s = manager_.Save(checkpoint);
  if (!s.ok()) {
    STIR_LOG(Warning) << "checkpoint write failed (continuing without): "
                      << s.message();
  }
}

Status StudyCheckpointer::SaveRefinementDone(
    const FunnelStats& funnel, const std::vector<RefinedUser>& refined) {
  StudyCheckpoint checkpoint;
  checkpoint.stage = StudyCheckpoint::kRefinementDone;
  checkpoint.dataset_fingerprint = dataset_fingerprint_;
  checkpoint.config_fingerprint = config_fingerprint_;
  checkpoint.fault_next_index =
      injector_ != nullptr ? injector_->next_index_value() : 0;
  checkpoint.funnel = funnel;
  checkpoint.refined = refined;
  std::lock_guard<std::mutex> lock(mu_);
  return manager_.Save(checkpoint);
}

bool StudyCheckpointer::ShouldStop() const {
  return halted_.load(std::memory_order_relaxed);
}

}  // namespace stir::core
