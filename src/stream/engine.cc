#include "stream/engine.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "io/atomic_file.h"

namespace stir::stream {

namespace {

using Clock = std::chrono::steady_clock;

int64_t MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

/// The one check of a new user's id, shared by AddUser and Append:
/// `known` says whether the engine (or the batch ahead of it) already
/// has the id.
Status CheckNewUser(twitter::UserId id, bool known) {
  if (id < 0) {
    return Status::InvalidArgument(
        StrFormat("user id %lld is negative", static_cast<long long>(id)));
  }
  if (known) {
    return Status::InvalidArgument(
        StrFormat("user %lld already exists", static_cast<long long>(id)));
  }
  return Status::OK();
}

Status UnknownUser(const twitter::Tweet& tweet) {
  return Status::InvalidArgument(
      StrFormat("tweet %lld references unknown user %lld",
                static_cast<long long>(tweet.id),
                static_cast<long long>(tweet.user)));
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
    m_seal_assemble_us_ = m->GetCounter("stream.seal.assemble_us");
    m_seal_index_us_ = m->GetCounter("stream.seal.index_us");
    m_seal_evidence_us_ = m->GetCounter("stream.seal.evidence_us");
    m_profile_parses_ = m->GetCounter("stream.profile_parses");
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
    AssembleLocked();
    PublishIndexLocked(serve::StudyIndex::Build(result_, *db_));
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
  STIR_RETURN_IF_ERROR(CheckNewUser(user.id, /*known=*/false));
  const auto row = static_cast<uint32_t>(users_.size());
  if (!row_of_.try_emplace(user.id, row).second) {
    return CheckNewUser(user.id, /*known=*/true);
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

  // The profile gate runs once at ingest — the parse the batch funnel
  // performs per user, made once per distinct string.
  auto [memo, added] = profile_memo_.try_emplace(user.profile_location);
  if (added) {
    text::ParsedLocation parsed = parser_.Parse(user.profile_location);
    memo->second = {parsed.quality, parsed.region};
    obs::IncrementCounter(m_profile_parses_);
  }
  const ProfileParse& parsed = memo->second;
  const bool well_defined =
      parsed.quality == text::LocationQuality::kWellDefined;
  ++stats_.quality_counts[static_cast<int>(parsed.quality)];
  ++stats_.crawled_users;
  stats_.total_tweets += user.total_tweets;
  if (well_defined) ++stats_.well_defined_users;
  users_.push_back(
      {.total_tweets = user.total_tweets,
       .profile_region = well_defined ? parsed.region : geo::kInvalidRegion});
  // Evidence registration is blind to the profile parse above: only the
  // id crosses into the inference layer (DESIGN.md §16).
  STIR_CHECK_EQ(evidence_->AddUser(user.id), row);
  obs::IncrementCounter(m_ingested_users_);
  dirty_ = true;
  return Status::OK();
}

Status StreamEngine::AddTweetLocked(const twitter::Tweet& tweet,
                                    int64_t fault_key, bool journal) {
  auto it = row_of_.find(tweet.user);
  if (it == row_of_.end()) return UnknownUser(tweet);
  const uint32_t row = it->second;
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

  UserRow& user = users_[row];
  if (tweet.gps.has_value()) ++stats_.gps_tweets;
  if (user.profile_region != geo::kInvalidRegion && tweet.gps.has_value()) {
    // The one fold this tweet ever gets; replays recompute it from the
    // journal with identical inputs, never from cached outputs.
    core::TweetFold fold =
        pipeline_->FoldTweet(tweet, key, user.profile_region);
    std::vector<geo::RegionId>* regions = nullptr;
    if (fold.region != geo::kInvalidRegion) {
      if (user.final_index == kNotFinal) {
        // The first geocoded tweet: the user joins the final sample, at
        // the end of finals_ until the next assemble merges it in.
        user.final_index = static_cast<uint32_t>(finals_.size());
        FinalUser& added = finals_.emplace_back();
        added.row = row;
        added.refined.user = tweet.user;
        added.refined.profile_region = user.profile_region;
        added.refined.total_tweets = user.total_tweets;
        ++stats_.final_users;
      }
      FinalUser& final_user = finals_[user.final_index];
      final_user.dirty = true;
      regions = &final_user.refined.tweet_regions;
    }
    // ApplyFold appends only a resolved region, so a null `regions` is
    // never written.
    core::RefinementPipeline::ApplyFold(fold, &stats_, regions);
  }
  // Inference evidence folds from every tweet (not just GPS tweets of
  // well-defined users), through AdminDb::Locate rather than the
  // fault-injected geocoder — so the evidence never depends on a fault
  // schedule and the fold commutes across any ingest order.
  evidence_->AddTweet(row, tweet);
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
  Status status;
  for (const twitter::User& user : users) {
    status = CheckNewUser(user.id, row_of_.contains(user.id) ||
                                       !batch_users.insert(user.id).second);
    if (!status.ok()) break;
  }
  for (size_t i = 0; status.ok() && i < tweets.size(); ++i) {
    if (!row_of_.contains(tweets[i].user) &&
        !batch_users.contains(tweets[i].user)) {
      status = UnknownUser(tweets[i]);
    }
  }
  if (!status.ok()) {
    outcome.ok = false;
    outcome.error = status.message();
    outcome.generation = generation_;
    outcome.pending_tweets = pending_tweets_;
    return outcome;
  }

  for (const twitter::User& user : users) {
    STIR_CHECK(AddUserLocked(user, /*journal=*/true).ok());
    ++outcome.users_appended;
  }
  for (const twitter::Tweet& tweet : tweets) {
    STIR_CHECK(
        AddTweetLocked(tweet, /*fault_key=*/-1, /*journal=*/true).ok());
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
  // Phase timers read the clock only when a registry is attached.
  const bool timed = m_seal_us_ != nullptr;
  const auto now = [timed] {
    return timed ? Clock::now() : Clock::time_point{};
  };
  const Clock::time_point seal_t0 = now();
  AssembleLocked();
  const Clock::time_point assembled = now();
  std::shared_ptr<const serve::StudyIndex> index =
      PublishIndexLocked(serve::StudyIndex::Build(result_, *db_));
  const Clock::time_point indexed = now();
  current_infer_index_ = evidence_->Build();
  const Clock::time_point evidenced = now();
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
  if (timed) {
    m_seal_assemble_us_->Increment(MicrosBetween(seal_t0, assembled));
    m_seal_index_us_->Increment(MicrosBetween(assembled, indexed));
    m_seal_evidence_us_->Increment(MicrosBetween(indexed, evidenced));
    m_seal_us_->Increment(MicrosBetween(seal_t0, Clock::now()));
  }

  if (scheduler_ != nullptr) {
    const Clock::time_point swap_t0 = now();
    scheduler_->SwapIndex(index, generation_);
    scheduler_->SwapInferIndex(current_infer_index_);
    if (timed) obs::RecordSample(m_swap_us_, MicrosBetween(swap_t0, now()));
  }
  return index;
}

void StreamEngine::AssembleLocked() {
  std::vector<core::UserGrouping>& groupings = result_.groupings;
  const size_t merged = groupings.size();
  if (finals_.size() > merged) {
    // Merge the users who became final since by arrival row, never in
    // the order they became final: a backward merge that moves only the
    // finals arriving after the first of them. Their slots in
    // `groupings` are stale until the regroup below (they are dirty).
    std::vector<FinalUser> added(
        std::make_move_iterator(finals_.begin() +
                                static_cast<std::ptrdiff_t>(merged)),
        std::make_move_iterator(finals_.end()));
    std::sort(added.begin(), added.end(),
              [](const FinalUser& a, const FinalUser& b) {
                return a.row < b.row;
              });
    groupings.resize(finals_.size());
    size_t old = merged;
    for (size_t at = finals_.size(); !added.empty();) {
      --at;
      if (old > 0 && finals_[old - 1].row > added.back().row) {
        --old;
        finals_[at] = std::move(finals_[old]);
        groupings[at] = std::move(groupings[old]);
      } else {
        finals_[at] = std::move(added.back());
        added.pop_back();
      }
      users_[finals_[at].row].final_index = static_cast<uint32_t>(at);
    }
  }
  // Delta regrouping: only users whose tweet_regions changed since the
  // last assemble recompute. GroupUser is pure and each result lands in
  // its own slot, so any thread count produces identical groupings.
  common::ParallelFor(pool_.get(), finals_.size(), [&](size_t i) {
    FinalUser& final_user = finals_[i];
    if (final_user.dirty) {
      groupings[i] =
          core::GroupUser(final_user.refined, *db_, config_.tie_break);
      final_user.dirty = false;
    }
  });
  result_.funnel = stats_;
  result_.funnel.fault_injection_enabled =
      geocoder_->fault_injection_enabled();
  core::AggregateGroups(&result_);
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
  AssembleLocked();
  core::StudyResult result = result_;
  result.refined.reserve(finals_.size());
  for (const FinalUser& final_user : finals_) {
    result.refined.push_back(final_user.refined);
  }
  return result;
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
  return static_cast<int64_t>(users_.size());
}

int64_t StreamEngine::ingested_tweets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ingested_tweets_;
}

bool StreamEngine::HasUser(twitter::UserId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return row_of_.contains(id);
}

}  // namespace stir::stream
