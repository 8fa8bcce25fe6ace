#include "serve/scheduler.h"

#include <algorithm>
#include <utility>

#include "obs/json.h"
#include "serve/stream_backend.h"

namespace stir::serve {

namespace {

int64_t ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

RequestScheduler::RequestScheduler(const StudyIndex* index,
                                   const ServeOptions& options)
    : RequestScheduler(
          // Non-owning alias: the caller keeps the index alive.
          std::shared_ptr<const StudyIndex>(std::shared_ptr<void>(), index),
          /*generation=*/0, options) {}

RequestScheduler::RequestScheduler(std::shared_ptr<const StudyIndex> index,
                                   int64_t generation,
                                   const ServeOptions& options)
    : options_(options),
      index_(std::move(index)),
      generation_(generation),
      pool_(std::max(1, options.workers), options.metrics) {
  options_.workers = std::max(1, options_.workers);
  options_.max_batch_size = std::max(1, options_.max_batch_size);
  options_.queue_capacity = std::max(1, options_.queue_capacity);
  // Tier thresholds: non-increasing, each at least 1 so every tier makes
  // progress on an idle server, tier 0 always the full queue. The clamp
  // chain enforces infer >= tier1 >= tier2 (tier numbers 1/2/3), so a
  // config that only sets the lookup/append limits keeps infer_user at
  // least as protected as the lookups.
  options_.infer_fill_limit =
      std::clamp(options_.infer_fill_limit, 0.0, 1.0);
  options_.tier1_fill_limit =
      std::clamp(options_.tier1_fill_limit, 0.0, options_.infer_fill_limit);
  options_.tier2_fill_limit =
      std::clamp(options_.tier2_fill_limit, 0.0, options_.tier1_fill_limit);
  const auto threshold = [&](double limit) {
    const double scaled = limit * static_cast<double>(options_.queue_capacity);
    return std::clamp(static_cast<int>(scaled), 1, options_.queue_capacity);
  };
  tier_thresholds_[0] = options_.queue_capacity;
  tier_thresholds_[1] = threshold(options_.infer_fill_limit);
  tier_thresholds_[2] = threshold(options_.tier1_fill_limit);
  tier_thresholds_[3] = threshold(options_.tier2_fill_limit);
  if (options_.infer_index != nullptr) {
    // Non-owning alias, like the batch StudyIndex constructor: the caller
    // keeps the evidence index alive.
    infer_index_ = std::shared_ptr<const infer::InferenceIndex>(
        std::shared_ptr<void>(), options_.infer_index);
  }
  if (obs::MetricsRegistry* m = options_.metrics; m != nullptr) {
    m_received_ = m->GetCounter("serve.requests.received");
    m_admitted_ = m->GetCounter("serve.requests.admitted");
    m_parse_errors_ = m->GetCounter("serve.requests.parse_errors");
    m_rejected_overload_ = m->GetCounter("serve.rejected.overload");
    m_rejected_shutdown_ = m->GetCounter("serve.rejected.shutdown");
    for (int t = 0; t < kNumShedTiers; ++t) {
      m_shed_tier_[t] =
          m->GetCounter("serve.shed.tier" + std::to_string(t));
    }
    m_responses_ = m->GetCounter("serve.responses");
    m_faults_injected_ = m->GetCounter("serve.faults_injected");
    for (int i = 0; i < kNumMethods; ++i) {
      m_method_[i] = m->GetCounter(
          std::string("serve.method.") +
          MethodToString(static_cast<Method>(i)));
    }
    if (options_.infer_index != nullptr) {
      m_infer_requests_ = m->GetCounter("infer.requests");
      m_infer_decided_ = m->GetCounter("infer.decided");
      m_infer_abstained_ = m->GetCounter("infer.abstained");
      m_infer_not_found_ = m->GetCounter("infer.not_found");
    }
    m_queue_depth_ = m->GetGauge("serve.queue_depth");
    m_queue_depth_max_ = m->GetGauge("serve.queue_depth_max");
    m_batch_size_ =
        m->GetHistogram("serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128});
    m_latency_us_ = m->GetHistogram(
        "serve.latency_us", {50, 100, 250, 500, 1'000, 2'500, 5'000, 10'000,
                             25'000, 50'000, 100'000, 250'000, 1'000'000});
    if (options_.default_deadline_ms > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      EnsureDeadlineMetricsLocked();
    }
  }
}

void RequestScheduler::EnsureDeadlineMetricsLocked() {
  if (m_deadline_exceeded_ != nullptr || options_.metrics == nullptr) return;
  m_deadline_requests_ = options_.metrics->GetCounter("serve.deadline.requests");
  m_deadline_exceeded_ = options_.metrics->GetCounter("serve.deadline.exceeded");
}

RequestScheduler::~RequestScheduler() { Drain(); }

void RequestScheduler::SwapIndex(std::shared_ptr<const StudyIndex> index,
                                 int64_t generation) {
  std::lock_guard<std::mutex> lock(index_mu_);
  index_ = std::move(index);
  generation_ = generation;
}

std::shared_ptr<const StudyIndex> RequestScheduler::PinIndex(
    int64_t* generation) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  if (generation != nullptr) *generation = generation_;
  return index_;
}

void RequestScheduler::SwapInferIndex(
    std::shared_ptr<const infer::InferenceIndex> index) {
  std::lock_guard<std::mutex> lock(index_mu_);
  infer_index_ = std::move(index);
}

std::shared_ptr<const infer::InferenceIndex> RequestScheduler::PinInferIndex()
    const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return infer_index_;
}

bool RequestScheduler::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

SchedulerStats RequestScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string RequestScheduler::StatsResponseLocked(int64_t id) const {
  std::shared_ptr<const StudyIndex> pinned = PinIndex();
  obs::JsonWriter w;
  BeginResponse(&w, id, true, true);
  w.Key("result");
  w.BeginObject();
  w.Key("index");
  w.BeginObject();
  w.Key("users");
  w.Int(static_cast<int64_t>(pinned->user_count()));
  w.Key("districts");
  w.Int(static_cast<int64_t>(pinned->district_count()));
  w.Key("final_users");
  w.Int(pinned->final_users());
  w.Key("memory_bytes");
  w.Int(pinned->MemoryBytes());
  w.EndObject();
  // Config echo deliberately omits the worker count: responses must be
  // byte-identical under any worker count, and this is the one field
  // that would vary.
  w.Key("scheduler");
  w.BeginObject();
  w.Key("max_batch_size");
  w.Int(options_.max_batch_size);
  w.Key("batch_linger_us");
  w.Int(options_.batch_linger_us);
  w.Key("queue_capacity");
  w.Int(options_.queue_capacity);
  if (options_.default_deadline_ms > 0) {
    // Config-gated so a deadline-free server's stats stay byte-identical
    // to builds that predate deadlines.
    w.Key("default_deadline_ms");
    w.Int(options_.default_deadline_ms);
  }
  w.EndObject();
  w.Key("counters");
  w.BeginObject();
  w.Key("received");
  w.Int(stats_.received);
  w.Key("admitted");
  w.Int(stats_.admitted);
  w.Key("stats_served");
  w.Int(stats_.stats_served);
  w.Key("parse_errors");
  w.Int(stats_.parse_errors);
  w.Key("rejected_overload");
  w.Int(stats_.rejected_overload);
  w.Key("rejected_shutdown");
  w.Int(stats_.rejected_shutdown);
  if (options_.degraded_data) {
    w.Key("rejected_corrupt");
    w.Int(stats_.rejected_corrupt);
  }
  w.Key("shed");
  w.BeginObject();
  for (int t = 0; t < kNumShedTiers; ++t) {
    w.Key("tier" + std::to_string(t));
    w.Int(stats_.rejected_by_tier[t]);
  }
  w.EndObject();
  w.EndObject();
  w.Key("methods");
  w.BeginObject();
  for (int i = 0; i < kNumMethods; ++i) {
    w.Key(MethodToString(static_cast<Method>(i)));
    w.Int(stats_.method_counts[i]);
  }
  w.EndObject();
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

int RequestScheduler::TierThreshold(int tier) const {
  if (tier < 0) tier = 0;
  if (tier >= kNumShedTiers) tier = kNumShedTiers - 1;
  return tier_thresholds_[tier];
}

int RequestScheduler::GuaranteedAdmissionWindow() const {
  return tier_thresholds_[kNumShedTiers - 1];
}

std::future<std::string> RequestScheduler::SubmitLine(std::string_view line) {
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  SubmitLineWith(line,
                 [promise](std::string response, const ResponseMeta&) {
                   promise->set_value(std::move(response));
                 });
  return future;
}

void RequestScheduler::SubmitLineWith(std::string_view line,
                                      ResponseCallback done) {
  // Parsing is pure; keep it outside the admission lock.
  ParseOutcome outcome = ParseRequest(line, options_.max_request_bytes);

  // Synchronous outcomes are rendered under the lock (admission order)
  // but delivered after releasing it, so the callback may take its own
  // locks without ordering against mu_.
  std::string response;
  ResponseMeta meta;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.received;
    obs::IncrementCounter(m_received_);

    if (!outcome.ok) {
      ++stats_.parse_errors;
      obs::IncrementCounter(m_parse_errors_);
      obs::IncrementCounter(m_responses_);
      response = ErrorResponse(outcome.has_id, outcome.id, outcome.code,
                               outcome.message);
    } else {
      meta.tier = ShedTier(outcome.request.method);
      // Append fence: while an append_tweets is between its execution
      // barrier and its index swap, hold later submissions back so they
      // pin the new generation. Appends are short (one epoch at most);
      // waiters re-check draining_ below after waking.
      admission_cv_.wait(lock, [&] { return appends_in_flight_ == 0; });
      if (draining_) {
        ++stats_.rejected_shutdown;
        obs::IncrementCounter(m_rejected_shutdown_);
        obs::IncrementCounter(m_responses_);
        response = ErrorResponse(true, outcome.id, ErrorCode::kShuttingDown,
                                 "server is draining");
      } else if (outcome.request.method == Method::kServerStats) {
        ++stats_.stats_served;
        ++stats_.method_counts[static_cast<int>(Method::kServerStats)];
        obs::IncrementCounter(
            m_method_[static_cast<int>(Method::kServerStats)]);
        obs::IncrementCounter(m_responses_);
        response = StatsResponseLocked(outcome.id);
      } else if (options_.degraded_data &&
                 outcome.request.method != Method::kIndexInfo) {
        // Degraded-data mode: the backing corpus failed verification, so
        // every data-plane answer would be built from suspect bytes.
        // Reject at admission with the retryable `data_corrupt` envelope;
        // server_stats (above) and index_info stay up as the control
        // plane an operator diagnoses the outage with.
        ++stats_.rejected_corrupt;
        obs::IncrementCounter(m_responses_);
        response = ErrorResponse(
            true, outcome.id, ErrorCode::kDataCorrupt,
            "backing corpus failed verification; serving degraded");
      } else if (queue_.size() >=
                 static_cast<size_t>(tier_thresholds_[meta.tier])) {
        // Tiered admission: the queue is fuller than this request
        // class's fill limit. Lower-value tiers hit their (smaller)
        // thresholds first, so under overload append_tweets sheds before
        // the lookups, and server_stats (answered above, no queue slot)
        // is never shed at all.
        meta.shed = true;
        ++stats_.rejected_overload;
        ++stats_.rejected_by_tier[meta.tier];
        obs::IncrementCounter(m_rejected_overload_);
        obs::IncrementCounter(m_shed_tier_[meta.tier]);
        obs::IncrementCounter(m_responses_);
        response = ErrorResponse(
            true, outcome.id, ErrorCode::kOverloaded,
            "admission queue is full; retry with backoff");
      } else if (outcome.request.method == Method::kAppendTweets) {
        // Executed in stream order at admission (no queue slot
        // consumed): counts as admitted, like any answered method.
        ++stats_.admitted;
        ++stats_.method_counts[static_cast<int>(Method::kAppendTweets)];
        obs::IncrementCounter(m_admitted_);
        obs::IncrementCounter(
            m_method_[static_cast<int>(Method::kAppendTweets)]);
        response = AppendLocked(lock, outcome.request);
        obs::IncrementCounter(m_responses_);
      } else {
        ++stats_.admitted;
        ++stats_.method_counts[static_cast<int>(outcome.request.method)];
        obs::IncrementCounter(m_admitted_);
        obs::IncrementCounter(
            m_method_[static_cast<int>(outcome.request.method)]);

        Pending pending;
        pending.request = std::move(outcome.request);
        pending.done = std::move(done);
        pending.seq = next_seq_++;
        if (m_latency_us_ != nullptr) {
          pending.enqueued = std::chrono::steady_clock::now();
        }
        // Per-request deadline_ms wins over the server default; with
        // neither, the clock is never consulted for this request.
        const int64_t deadline_ms = pending.request.deadline_ms > 0
                                        ? pending.request.deadline_ms
                                        : options_.default_deadline_ms;
        if (deadline_ms > 0) {
          pending.has_deadline = true;
          pending.deadline = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(deadline_ms);
          EnsureDeadlineMetricsLocked();
          obs::IncrementCounter(m_deadline_requests_);
        }
        queue_.push_back(std::move(pending));
        if (m_queue_depth_ != nullptr) {
          m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
          m_queue_depth_max_->SetMax(static_cast<int64_t>(queue_.size()));
        }
        if (queue_.size() >= static_cast<size_t>(options_.max_batch_size)) {
          batch_cv_.notify_one();
        }
        if (active_drainers_ < options_.workers) {
          ++active_drainers_;
          lock.unlock();
          pool_.Submit([this] { DrainLoop(); });
        }
        return;  // Asynchronous: a worker invokes the callback.
      }
    }
  }
  done(std::move(response), meta);
}

std::string RequestScheduler::AppendLocked(
    std::unique_lock<std::mutex>& lock, const Request& request) {
  if (options_.stream == nullptr) {
    return ErrorResponse(true, request.id, ErrorCode::kBadRequest,
                         "server is not in streaming mode");
  }
  // Barrier: every previously admitted request must have executed (and
  // pinned its generation) before the backend may swap in a new one. The
  // fence counter keeps later submissions out while we wait, so the
  // predicate's next_seq_ is frozen. The wait releases mu_, letting
  // drainers finish in-flight batches and bump executed_.
  ++appends_in_flight_;
  executed_cv_.wait(lock, [&] { return executed_ == next_seq_; });
  AppendOutcome out =
      options_.stream->Append(request.users, request.tweets);
  --appends_in_flight_;
  admission_cv_.notify_all();
  if (!out.ok) {
    return ErrorResponse(true, request.id, ErrorCode::kBadRequest,
                         out.error);
  }
  obs::JsonWriter w;
  BeginResponse(&w, request.id, true, true);
  w.Key("result");
  w.BeginObject();
  w.Key("appended_users");
  w.Int(out.users_appended);
  w.Key("appended_tweets");
  w.Int(out.tweets_appended);
  w.Key("epochs_sealed");
  w.Int(out.epochs_sealed);
  w.Key("generation");
  w.Int(out.generation);
  w.Key("pending");
  w.Int(out.pending_tweets);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

void RequestScheduler::DrainLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queue_.empty()) {
      --active_drainers_;
      if (active_drainers_ == 0) drained_cv_.notify_all();
      return;
    }
    if (options_.batch_linger_us > 0 &&
        queue_.size() < static_cast<size_t>(options_.max_batch_size) &&
        !draining_) {
      batch_cv_.wait_for(
          lock, std::chrono::microseconds(options_.batch_linger_us), [&] {
            return draining_ ||
                   queue_.size() >=
                       static_cast<size_t>(options_.max_batch_size);
          });
    }
    size_t n = std::min(queue_.size(),
                        static_cast<size_t>(options_.max_batch_size));
    std::vector<Pending> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    if (m_queue_depth_ != nullptr) {
      m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    lock.unlock();
    ProcessBatch(std::move(batch));
    lock.lock();
  }
}

void RequestScheduler::ProcessBatch(std::vector<Pending> batch) {
  obs::RecordSample(m_batch_size_, static_cast<int64_t>(batch.size()));
  // Pin one generation for the whole batch: every request in it answers
  // from the same consistent snapshot, and the shared_ptr keeps that
  // snapshot alive across any concurrent SwapIndex.
  int64_t generation = 0;
  std::shared_ptr<const StudyIndex> pinned = PinIndex(&generation);
  std::shared_ptr<const infer::InferenceIndex> pinned_infer = PinInferIndex();
  const bool streaming = options_.stream != nullptr;
  int64_t deadlines_missed = 0;
  for (Pending& pending : batch) {
    std::string response;
    ResponseMeta meta;
    meta.tier = ShedTier(pending.request.method);
    common::FaultInjector* injector = options_.fault_injector;
    if (pending.has_deadline &&
        std::chrono::steady_clock::now() >= pending.deadline) {
      // The client's budget expired while the request sat in the queue;
      // executing it now would burn index time on an answer nobody is
      // waiting for. Answer the retryable envelope instead.
      ++deadlines_missed;
      meta.deadline_expired = true;
      obs::IncrementCounter(m_deadline_exceeded_);
      response = ErrorResponse(
          true, pending.request.id, ErrorCode::kDeadlineExceeded,
          "deadline expired before execution; retry with backoff");
    } else if (injector != nullptr && injector->enabled() &&
               injector->Decide(pending.seq).injected()) {
      obs::IncrementCounter(m_faults_injected_);
      response = ErrorResponse(true, pending.request.id,
                               ErrorCode::kUnavailable,
                               "injected service fault; retry with backoff");
    } else if (pending.request.method == Method::kInferUser) {
      InferOutcome infer_outcome = InferOutcome::kRejected;
      response = ExecuteInferUser(pinned_infer.get(), options_.infer,
                                  pending.request, &infer_outcome);
      obs::IncrementCounter(m_infer_requests_);
      switch (infer_outcome) {
        case InferOutcome::kDecided:
          obs::IncrementCounter(m_infer_decided_);
          break;
        case InferOutcome::kAbstained:
          obs::IncrementCounter(m_infer_abstained_);
          break;
        case InferOutcome::kNotFound:
          obs::IncrementCounter(m_infer_not_found_);
          break;
        case InferOutcome::kRejected:
          break;
      }
    } else {
      response = ExecuteOnIndex(*pinned, pending.request, generation,
                                streaming);
    }
    if (m_latency_us_ != nullptr) {
      m_latency_us_->Record(ElapsedMicros(pending.enqueued));
    }
    obs::IncrementCounter(m_responses_);
    pending.done(std::move(response), meta);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    executed_ += static_cast<int64_t>(batch.size());
    stats_.deadline_exceeded += deadlines_missed;
  }
  executed_cv_.notify_all();
}

void RequestScheduler::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  batch_cv_.notify_all();
}

void RequestScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  batch_cv_.notify_all();
  drained_cv_.wait(lock,
                   [&] { return queue_.empty() && active_drainers_ == 0; });
}

}  // namespace stir::serve
