#include "stream/engine.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "io/atomic_file.h"

namespace stir::stream {

namespace {

int64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

StreamEngine::StreamEngine(const geo::AdminDb* db, const StudyConfig& config,
                           const StreamOptions& options)
    : db_(db),
      config_(config),
      options_(options),
      parser_(db),
      injector_(config.fault) {
  STIR_CHECK(db != nullptr);
  if (obs::MetricsRegistry* m = config_.obs.metrics; m != nullptr) {
    m_epochs_sealed_ = m->GetCounter("stream.epochs_sealed");
    m_seal_us_ = m->GetCounter("stream.seal_us");
    m_retired_ = m->GetCounter("stream.generations_retired");
    m_live_ = m->GetGauge("stream.generations_live");
    m_pending_ = m->GetGauge("stream.pending_tweets");
    m_ingested_users_ = m->GetCounter("stream.ingested_users");
    m_ingested_tweets_ = m->GetCounter("stream.ingested_tweets");
    m_swap_us_ = m->GetHistogram(
        "stream.swap_us",
        {10, 25, 50, 100, 250, 500, 1'000, 2'500, 5'000, 10'000, 50'000});
  }
}

StreamEngine::~StreamEngine() = default;

Status StreamEngine::Open() {
  if (opened_) {
    return Status::InvalidArgument("StreamEngine::Open called twice");
  }

  // The engine-owned injector engages only when a fault or crash knob is
  // armed, so a fault-free stream is byte-identical to a build without
  // the fault layer.
  geo::ReverseGeocoderOptions geocoder_options =
      core::GeocoderOptionsFor(config_, &injector_);

  const io::DurabilityOptions& durability = config_.durability;
  geo::GeocodeJournalReplay geo_replay;
  StreamJournalReplay stream_replay;
  if (!durability.checkpoint_dir.empty()) {
    Status dir_status = io::EnsureDirectory(durability.checkpoint_dir);
    if (!dir_status.ok()) {
      STIR_LOG(Warning) << "stream durable directory unavailable, running "
                           "in memory only: "
                        << dir_status.message();
    } else {
      // Geocode journal: previously-resolved lookups replay as cache
      // hits, so resumed re-folds spend no additional quota. Fault
      // decisions fire before the cache, so the fault/retry charges of a
      // re-fold are unchanged by the warm cache.
      geo_replay = io::OpenJournal(
          durability.checkpoint_dir + "/geocode.journal", durability.resume,
          durability.fsync, "geocode", "lookups", &geocode_journal_);
      geocoder_options.journal = geocode_journal_.get();
      stream_replay = io::OpenJournal(
          durability.checkpoint_dir + "/stream.journal", durability.resume,
          durability.fsync, "stream", "ingest", &journal_);
      if (obs::MetricsRegistry* m = config_.obs.metrics;
          m != nullptr && durability.resume) {
        m->GetCounter("stream.journal.replayed")
            ->Increment(stream_replay.stats.records);
        m->GetCounter("stream.journal.quarantined")
            ->Increment(stream_replay.stats.quarantined);
        m->GetCounter("stream.journal.truncated_bytes")
            ->Increment(stream_replay.stats.truncated_bytes);
      }
    }
  }

  geocoder_ = std::make_unique<geo::ReverseGeocoder>(db_, geocoder_options);
  for (const geo::GeocodeJournalEntry& entry : geo_replay.entries) {
    geocoder_->PreloadCache(entry.cache_key, entry.result);
  }
  pipeline_ = std::make_unique<core::RefinementPipeline>(
      &parser_, geocoder_.get(), config_);
  if (config_.threads > 1) {
    pool_ = std::make_unique<common::ThreadPool>(config_.threads,
                                                 config_.obs.metrics);
  }
  opened_ = true;

  std::lock_guard<std::mutex> lock(mu_);
  evidence_ = std::make_unique<infer::EvidenceBuilder>(db_);
  // Generation 0: the empty index every streaming server starts from.
  PublishIndexLocked(serve::StudyIndex{});
  current_infer_index_ = evidence_->Build();
  if (!stream_replay.records.empty()) {
    ReplayStreamJournalLocked(stream_replay);
  }
  return Status::OK();
}

void StreamEngine::ReplayStreamJournalLocked(
    const StreamJournalReplay& replay) {
  // Split the record sequence at the last seal marker: everything before
  // it is state the crashed run had already sealed (re-ingested with
  // index building deferred to one rebuild), everything after is the
  // pending tail, re-ingested live so auto-sealing fires at the same
  // epoch boundaries as the uninterrupted run would have hit.
  size_t tail_start = 0;
  int64_t markers = 0;
  for (size_t i = 0; i < replay.records.size(); ++i) {
    if (replay.records[i].kind == StreamRecord::Kind::kEpochSeal) {
      tail_start = i + 1;
      ++markers;
    }
  }

  auto apply = [&](const StreamRecord& record) {
    Status status;
    if (record.kind == StreamRecord::Kind::kUser) {
      status = AddUserLocked(record.user, /*journal=*/false);
    } else if (record.kind == StreamRecord::Kind::kTweet) {
      status =
          AddTweetLocked(record.tweet, record.fault_key, /*journal=*/false);
    }
    if (!status.ok()) {
      // A record the crashed run accepted can only fail here if the
      // journal lost records (quarantine). Skip it — the valid remainder
      // still replays.
      STIR_LOG(Warning) << "stream journal replay skipped a record: "
                        << status.message();
    }
  };

  if (markers > 0) {
    // Pre-marker ingest never auto-seals: the sealed prefix collapses to
    // one index build at the last marker.
    const int64_t saved_epoch_size = options_.epoch_size;
    options_.epoch_size = 0;
    for (size_t i = 0; i < tail_start - 1; ++i) apply(replay.records[i]);
    options_.epoch_size = saved_epoch_size;
    epochs_sealed_ = markers;
    generation_ = markers;
    core::StudyResult result = AssembleResultLocked(/*include_refined=*/false);
    PublishIndexLocked(serve::StudyIndex::Build(result, *db_));
    current_infer_index_ = evidence_->Build();
    pending_tweets_ = 0;
    dirty_ = false;
    if (m_pending_ != nullptr) m_pending_->Set(0);
  }
  // Tail: live re-ingest. A seal the crashed run built but did not mark
  // re-seals here at the identical boundary (auto-seal re-arms), so the
  // epoch partition — and with it the generation numbers — line up with
  // the uninterrupted run.
  for (size_t i = tail_start; i < replay.records.size(); ++i) {
    apply(replay.records[i]);
  }
}

void StreamEngine::AttachScheduler(serve::RequestScheduler* scheduler) {
  std::lock_guard<std::mutex> lock(mu_);
  scheduler_ = scheduler;
  if (scheduler_ != nullptr) {
    scheduler_->SwapIndex(current_index_, generation_);
    scheduler_->SwapInferIndex(current_infer_index_);
  }
}

Status StreamEngine::AddUser(const twitter::User& user) {
  STIR_CHECK(opened_);
  std::lock_guard<std::mutex> lock(mu_);
  return AddUserLocked(user, /*journal=*/true);
}

Status StreamEngine::AddTweet(const twitter::Tweet& tweet,
                              int64_t fault_key) {
  STIR_CHECK(opened_);
  std::lock_guard<std::mutex> lock(mu_);
  return AddTweetLocked(tweet, fault_key, /*journal=*/true);
}

Status StreamEngine::AddUserLocked(const twitter::User& user, bool journal) {
  if (user.id < 0) {
    return Status::InvalidArgument(
        StrFormat("user id %lld is negative",
                  static_cast<long long>(user.id)));
  }
  if (by_id_.count(user.id) != 0) {
    return Status::InvalidArgument(
        StrFormat("user %lld already exists",
                  static_cast<long long>(user.id)));
  }
  if (journal && journal_ != nullptr && journal_->is_open()) {
    Status status = journal_->Append(StreamJournal::EncodeUser(user));
    if (!status.ok() && !journal_append_failed_) {
      journal_append_failed_ = true;
      STIR_LOG(Warning) << "stream journal append failed (journal lost "
                           "for this run): "
                        << status.message();
    }
  }

  auto state = std::make_unique<UserState>();
  state->refined.user = user.id;
  state->refined.total_tweets = user.total_tweets;
  // The profile gate runs once at ingest — exactly the parse the batch
  // funnel performs per user.
  text::ParsedLocation parsed = parser_.Parse(user.profile_location);
  ++stats_.quality_counts[static_cast<int>(parsed.quality)];
  ++stats_.crawled_users;
  stats_.total_tweets += user.total_tweets;
  if (parsed.quality == text::LocationQuality::kWellDefined) {
    state->well_defined = true;
    state->refined.profile_region = parsed.region;
    ++stats_.well_defined_users;
  }
  by_id_.emplace(user.id, state.get());
  states_.push_back(std::move(state));
  // Evidence registration is blind to the profile parse above: only the
  // id crosses into the inference layer (DESIGN.md §16).
  evidence_->AddUser(user.id);
  ++ingested_users_;
  obs::IncrementCounter(m_ingested_users_);
  dirty_ = true;
  return Status::OK();
}

Status StreamEngine::AddTweetLocked(const twitter::Tweet& tweet,
                                    int64_t fault_key, bool journal) {
  auto it = by_id_.find(tweet.user);
  if (it == by_id_.end()) {
    return Status::InvalidArgument(
        StrFormat("tweet %lld references unknown user %lld",
                  static_cast<long long>(tweet.id),
                  static_cast<long long>(tweet.user)));
  }
  int64_t key = fault_key >= 0 ? fault_key : next_fault_key_;
  next_fault_key_ = std::max(next_fault_key_, key + 1);
  if (journal && journal_ != nullptr && journal_->is_open()) {
    Status status = journal_->Append(StreamJournal::EncodeTweet(tweet, key));
    if (!status.ok() && !journal_append_failed_) {
      journal_append_failed_ = true;
      STIR_LOG(Warning) << "stream journal append failed (journal lost "
                           "for this run): "
                        << status.message();
    }
  }

  UserState* state = it->second;
  if (tweet.gps.has_value()) ++stats_.gps_tweets;
  if (state->well_defined && tweet.gps.has_value()) {
    // The one fold this tweet ever gets; replays recompute it from the
    // journal with identical inputs, never from cached outputs.
    core::TweetFold fold =
        pipeline_->FoldTweet(tweet, key, state->refined.profile_region);
    size_t before = state->refined.tweet_regions.size();
    core::RefinementPipeline::ApplyFold(fold, &stats_,
                                        &state->refined.tweet_regions);
    if (state->refined.tweet_regions.size() > before) {
      state->dirty = true;
      if (!state->is_final) {
        state->is_final = true;
        ++stats_.final_users;
      }
    }
  }
  // Inference evidence folds from every tweet (not just GPS tweets of
  // well-defined users), through AdminDb::Locate rather than the
  // fault-injected geocoder — so the evidence never depends on a fault
  // schedule and the fold commutes across any ingest order.
  evidence_->AddTweet(tweet);
  ++ingested_tweets_;
  obs::IncrementCounter(m_ingested_tweets_);
  ++pending_tweets_;
  if (m_pending_ != nullptr) m_pending_->Set(pending_tweets_);
  dirty_ = true;
  if (options_.epoch_size > 0 && pending_tweets_ >= options_.epoch_size) {
    SealEpochLocked();
  }
  return Status::OK();
}

serve::AppendOutcome StreamEngine::Append(
    const std::vector<twitter::User>& users,
    const std::vector<twitter::Tweet>& tweets) {
  STIR_CHECK(opened_);
  std::lock_guard<std::mutex> lock(mu_);
  serve::AppendOutcome outcome;
  const int64_t epochs_before = epochs_sealed_;

  // Validate the whole batch before touching any state: a rejected batch
  // is applied not at all.
  std::unordered_set<twitter::UserId> batch_users;
  for (const twitter::User& user : users) {
    if (user.id < 0 || by_id_.count(user.id) != 0 ||
        !batch_users.insert(user.id).second) {
      outcome.ok = false;
      outcome.error = StrFormat("user %lld already exists",
                                static_cast<long long>(user.id));
      break;
    }
  }
  if (outcome.ok) {
    for (const twitter::Tweet& tweet : tweets) {
      if (by_id_.count(tweet.user) == 0 &&
          batch_users.count(tweet.user) == 0) {
        outcome.ok = false;
        outcome.error =
            StrFormat("tweet %lld references unknown user %lld",
                      static_cast<long long>(tweet.id),
                      static_cast<long long>(tweet.user));
        break;
      }
    }
  }
  if (!outcome.ok) {
    outcome.generation = generation_;
    outcome.pending_tweets = pending_tweets_;
    return outcome;
  }

  for (const twitter::User& user : users) {
    Status status = AddUserLocked(user, /*journal=*/true);
    STIR_CHECK(status.ok());
    ++outcome.users_appended;
  }
  for (const twitter::Tweet& tweet : tweets) {
    Status status = AddTweetLocked(tweet, /*fault_key=*/-1, /*journal=*/true);
    STIR_CHECK(status.ok());
    ++outcome.tweets_appended;
  }
  outcome.epochs_sealed = epochs_sealed_ - epochs_before;
  outcome.generation = generation_;
  outcome.pending_tweets = pending_tweets_;
  return outcome;
}

std::shared_ptr<const serve::StudyIndex> StreamEngine::SealEpoch() {
  STIR_CHECK(opened_);
  std::lock_guard<std::mutex> lock(mu_);
  return SealEpochLocked();
}

std::shared_ptr<const serve::StudyIndex> StreamEngine::SealEpochLocked() {
  if (!dirty_) return current_index_;
  std::chrono::steady_clock::time_point seal_t0 =
      std::chrono::steady_clock::now();

  core::StudyResult result = AssembleResultLocked(/*include_refined=*/false);
  std::shared_ptr<const serve::StudyIndex> index =
      PublishIndexLocked(serve::StudyIndex::Build(result, *db_));
  current_infer_index_ = evidence_->Build();
  ++epochs_sealed_;
  generation_ = epochs_sealed_;
  pending_tweets_ = 0;
  dirty_ = false;
  if (m_pending_ != nullptr) m_pending_->Set(0);

  // The marker is written only after the generation exists: replay
  // treats unmarked tail records as pending and re-seals them at the
  // same boundary.
  if (journal_ != nullptr && journal_->is_open()) {
    Status status =
        journal_->Append(StreamJournal::EncodeEpochSeal(epochs_sealed_));
    if (!status.ok() && !journal_append_failed_) {
      journal_append_failed_ = true;
      STIR_LOG(Warning) << "stream journal append failed (journal lost "
                           "for this run): "
                        << status.message();
    }
  }
  obs::IncrementCounter(m_epochs_sealed_);
  obs::IncrementCounter(m_seal_us_, ElapsedUs(seal_t0));

  if (scheduler_ != nullptr) {
    std::chrono::steady_clock::time_point swap_t0 =
        std::chrono::steady_clock::now();
    scheduler_->SwapIndex(index, generation_);
    scheduler_->SwapInferIndex(current_infer_index_);
    obs::RecordSample(m_swap_us_, ElapsedUs(swap_t0));
  }
  return index;
}

core::StudyResult StreamEngine::AssembleResultLocked(bool include_refined) {
  std::vector<UserState*> finals;
  finals.reserve(states_.size());
  for (const std::unique_ptr<UserState>& state : states_) {
    if (state->is_final) finals.push_back(state.get());
  }
  // Delta regrouping: only users whose tweet_regions changed since the
  // last seal recompute. GroupUser is pure and each result lands in its
  // own slot, so any thread count produces identical groupings.
  common::ParallelFor(pool_.get(), finals.size(), [&](size_t i) {
    UserState* state = finals[i];
    if (state->dirty) {
      state->grouping =
          core::GroupUser(state->refined, *db_, config_.tie_break);
      state->dirty = false;
    }
  });

  core::StudyResult result;
  result.funnel = stats_;
  result.funnel.fault_injection_enabled =
      geocoder_->fault_injection_enabled();
  result.groupings.reserve(finals.size());
  if (include_refined) result.refined.reserve(finals.size());
  for (UserState* state : finals) {
    result.groupings.push_back(state->grouping);
    if (include_refined) result.refined.push_back(state->refined);
  }
  core::AggregateGroups(&result);
  return result;
}

std::shared_ptr<const serve::StudyIndex> StreamEngine::PublishIndexLocked(
    serve::StudyIndex index) {
  // The deleter captures the sinks by value (never `this`): a reader may
  // drop the last pin on a retired generation long after the engine is
  // gone, so retirement accounting must not dereference the engine.
  obs::Counter* retired = m_retired_;
  obs::Gauge* live = m_live_;
  std::shared_ptr<const serve::StudyIndex> shared(
      new serve::StudyIndex(std::move(index)),
      [retired, live](const serve::StudyIndex* p) {
        delete p;
        obs::IncrementCounter(retired);
        if (live != nullptr) live->Add(-1);
      });
  if (live != nullptr) live->Add(1);
  current_index_ = shared;
  return shared;
}

core::StudyResult StreamEngine::SnapshotResult() {
  STIR_CHECK(opened_);
  std::lock_guard<std::mutex> lock(mu_);
  return AssembleResultLocked(/*include_refined=*/true);
}

std::shared_ptr<const serve::StudyIndex> StreamEngine::CurrentIndex() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_index_;
}

std::shared_ptr<const infer::InferenceIndex> StreamEngine::CurrentInferIndex()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_infer_index_;
}

int64_t StreamEngine::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

int64_t StreamEngine::epochs_sealed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_sealed_;
}

int64_t StreamEngine::pending_tweets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_tweets_;
}

int64_t StreamEngine::ingested_users() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ingested_users_;
}

int64_t StreamEngine::ingested_tweets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ingested_tweets_;
}

bool StreamEngine::HasUser(twitter::UserId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_id_.count(id) != 0;
}

}  // namespace stir::stream
