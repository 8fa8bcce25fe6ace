#include "core/study.h"

#include <memory>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "geo/geocode_journal.h"
#include "io/atomic_file.h"
#include "io/corpus.h"

namespace stir::core {

std::string StudyResult::GroupTableString() const {
  std::string out;
  out += StrFormat("%-8s %8s %8s %12s %9s %14s\n", "group", "users", "user%",
                   "gps_tweets", "tweet%", "avg_locations");
  for (int g = 0; g < kNumTopKGroups; ++g) {
    const GroupStats& stats = groups[g];
    out += StrFormat("%-8s %8lld %7.2f%% %12lld %8.2f%% %14.2f\n",
                     TopKGroupToString(static_cast<TopKGroup>(g)),
                     static_cast<long long>(stats.users),
                     stats.user_share * 100.0,
                     static_cast<long long>(stats.gps_tweets),
                     stats.tweet_share * 100.0, stats.avg_tweet_locations);
  }
  out += StrFormat("overall avg tweet locations per user: %.2f\n",
                   overall_avg_locations);
  return out;
}

std::string StudyResult::FunnelString() const {
  std::string out;
  out += StrFormat("crawled users:               %lld\n",
                   static_cast<long long>(funnel.crawled_users));
  out += StrFormat("  empty profile location:    %lld\n",
                   static_cast<long long>(funnel.quality_counts[0]));
  out += StrFormat("  vague:                     %lld\n",
                   static_cast<long long>(funnel.quality_counts[1]));
  out += StrFormat("  insufficient:              %lld\n",
                   static_cast<long long>(funnel.quality_counts[2]));
  out += StrFormat("  ambiguous:                 %lld\n",
                   static_cast<long long>(funnel.quality_counts[3]));
  out += StrFormat("well-defined profiles:       %lld\n",
                   static_cast<long long>(funnel.well_defined_users));
  out += StrFormat("total tweets (corpus):       %lld\n",
                   static_cast<long long>(funnel.total_tweets));
  out += StrFormat("GPS-tagged tweets:           %lld\n",
                   static_cast<long long>(funnel.gps_tweets));
  out += StrFormat("geocode failures:            %lld\n",
                   static_cast<long long>(funnel.geocode_failures));
  if (funnel.fault_injection_enabled) {
    out += StrFormat("  service faults (terminal): %lld\n",
                     static_cast<long long>(funnel.geocode_faulted));
    out += StrFormat("  retried attempts:          %lld\n",
                     static_cast<long long>(funnel.geocode_retried));
    out += StrFormat("  degraded (text fallback):  %lld\n",
                     static_cast<long long>(funnel.geocode_degraded));
    out += StrFormat("  simulated backoff (ms):    %lld\n",
                     static_cast<long long>(funnel.backoff_ms));
  }
  out += StrFormat("final users (study sample):  %lld\n",
                   static_cast<long long>(funnel.final_users));
  return out;
}

void AggregateGroups(StudyResult* result) {
  for (int g = 0; g < kNumTopKGroups; ++g) result->groups[g] = GroupStats{};
  result->final_users = static_cast<int64_t>(result->groupings.size());
  int64_t total_gps = 0;
  double location_sum_all = 0.0;
  double location_sum[kNumTopKGroups] = {};
  for (const UserGrouping& grouping : result->groupings) {
    GroupStats& stats = result->groups[static_cast<int>(grouping.group)];
    ++stats.users;
    stats.gps_tweets += grouping.gps_tweet_count;
    total_gps += grouping.gps_tweet_count;
    location_sum[static_cast<int>(grouping.group)] +=
        static_cast<double>(grouping.distinct_tweet_locations());
    location_sum_all +=
        static_cast<double>(grouping.distinct_tweet_locations());
  }
  for (int g = 0; g < kNumTopKGroups; ++g) {
    GroupStats& stats = result->groups[g];
    if (result->final_users > 0) {
      stats.user_share = static_cast<double>(stats.users) /
                         static_cast<double>(result->final_users);
    }
    if (total_gps > 0) {
      stats.tweet_share = static_cast<double>(stats.gps_tweets) /
                          static_cast<double>(total_gps);
    }
    if (stats.users > 0) {
      stats.avg_tweet_locations =
          location_sum[g] / static_cast<double>(stats.users);
    }
  }
  result->overall_avg_locations =
      result->final_users > 0
          ? location_sum_all / static_cast<double>(result->final_users)
          : 0.0;
}

CorrelationStudy::CorrelationStudy(const geo::AdminDb* db,
                                   const StudyConfig& config)
    : db_(db), config_(config), parser_(db) {}

StudyResult CorrelationStudy::Run(const io::CorpusView& corpus) const {
  StudyResult result;
  StudyConfig cfg = config_;
  obs::RunSinks sinks(&cfg.obs);

  // The stages close the "study" root span on return, so the snapshots
  // below see every span complete.
  RunStages(corpus, cfg, &result);

  if (cfg.obs.metrics != nullptr) {
    result.metrics = cfg.obs.metrics->Snapshot();
  }
  if (cfg.obs.tracer != nullptr) {
    result.trace = cfg.obs.tracer->Snapshot();
  }
  return result;
}

geo::ReverseGeocoderOptions GeocoderOptionsFor(
    const StudyConfig& config, common::FaultInjector* injector) {
  geo::ReverseGeocoderOptions options = config.geocoder;
  // Crash scheduling alone (crash_after with every fault knob off) also
  // wires the injector in: the crash hook lives in the geocoder, but
  // enabled() stays false so reporting is untouched.
  if (options.fault_injector == nullptr &&
      (injector->enabled() || injector->crash_enabled())) {
    options.fault_injector = injector;
    options.retry = config.retry;
  }
  if (options.metrics == nullptr) options.metrics = config.obs.metrics;
  if (options.tracer == nullptr && config.obs.trace_geocode_calls) {
    options.tracer = config.obs.tracer;
  }
  return options;
}

StudyResult CorrelationStudy::Run(const twitter::Dataset& dataset) const {
  // The batch study reads one shape: a row-oriented dataset is encoded
  // into an in-memory arena image (the bytes CorpusWriter::WriteDataset
  // would write, tweet rows in dataset order) and runs the view path.
  StatusOr<io::CorpusView> corpus = io::CorpusView::FromDataset(dataset);
  STIR_CHECK(corpus.ok()) << corpus.status().ToString();
  return Run(*corpus);
}

void CorrelationStudy::RunStages(const io::CorpusView& corpus,
                                 const StudyConfig& cfg,
                                 StudyResult* result) const {
  obs::Tracer::ScopedSpan study_span(cfg.obs.tracer, "study");

  // Each run owns a fresh injector so fault schedules restart at call
  // index zero.
  common::FaultInjector injector(cfg.fault);
  geo::ReverseGeocoderOptions geocoder_options =
      GeocoderOptionsFor(cfg, &injector);

  // --- Durability (DESIGN.md §9). Every failure on this path degrades
  // to running without the affected piece; corruption never aborts. ---
  const io::DurabilityOptions& durability = cfg.durability;
  std::unique_ptr<StudyCheckpointer> checkpointer;
  std::unique_ptr<geo::GeocodeJournal> journal;
  geo::GeocodeJournalReplay journal_replay;
  bool resumed = false;
  if (!durability.checkpoint_dir.empty()) {
    Status dir_status = io::EnsureDirectory(durability.checkpoint_dir);
    if (!dir_status.ok()) {
      STIR_LOG(Warning) << "checkpoint directory unavailable, durability "
                           "disabled for this run: "
                        << dir_status.message();
    } else {
      checkpointer = std::make_unique<StudyCheckpointer>(
          durability, CorpusFingerprint(corpus), ConfigFingerprint(cfg));
      checkpointer->set_fault_injector(&injector);
      journal_replay = io::OpenJournal(
          durability.checkpoint_dir + "/geocode.journal", durability.resume,
          durability.fsync, "geocode", "lookups", &journal);
      if (durability.resume) {
        resumed = checkpointer->TryRestore();
        if (resumed) {
          injector.RestoreNextIndex(checkpointer->restored_fault_next_index());
        }
      }
      geocoder_options.journal = journal.get();
    }
  }

  geo::ReverseGeocoder geocoder(db_, geocoder_options);
  // Pre-warm the cache from the journal: every lookup the crashed run
  // resolved is served as a cache hit, spending zero additional quota.
  for (const geo::GeocodeJournalEntry& entry : journal_replay.entries) {
    geocoder.PreloadCache(entry.cache_key, entry.result);
  }

  auto publish_io_metrics = [&] {
    if (cfg.obs.metrics == nullptr || durability.checkpoint_dir.empty()) {
      return;
    }
    obs::MetricsRegistry* m = cfg.obs.metrics;
    m->GetCounter("io.journal.replayed")
        ->Increment(journal_replay.stats.records);
    m->GetCounter("io.journal.quarantined")
        ->Increment(journal_replay.stats.quarantined);
    m->GetCounter("io.journal.truncated_bytes")
        ->Increment(journal_replay.stats.truncated_bytes);
    m->GetCounter("io.journal.appended")
        ->Increment(journal != nullptr ? journal->appended() : 0);
    if (checkpointer != nullptr) {
      m->GetCounter("io.snapshot.writes")
          ->Increment(checkpointer->snapshot_writes());
    }
    m->GetCounter("io.checkpoint.resumed")->Increment(resumed ? 1 : 0);
  };

  RefinementPipeline pipeline(&parser_, &geocoder, cfg);
  std::unique_ptr<common::ThreadPool> pool;
  if (cfg.threads > 1) {
    pool = std::make_unique<common::ThreadPool>(cfg.threads, cfg.obs.metrics);
  }
  if (resumed &&
      checkpointer->restored_stage() == StudyCheckpoint::kRefinementDone) {
    // Refinement completed before the crash; grouping and aggregation are
    // recomputed from the persisted refined vector.
    result->funnel = checkpointer->restored_funnel();
    result->refined = checkpointer->TakeRestoredRefined();
  } else {
    result->refined = pipeline.Run(corpus, &result->funnel, pool.get(),
                                   checkpointer.get());
    if (checkpointer != nullptr && checkpointer->halted()) {
      result->incomplete = true;
      publish_io_metrics();
      return;
    }
    if (checkpointer != nullptr) {
      Status s = checkpointer->SaveRefinementDone(result->funnel,
                                                  result->refined);
      if (!s.ok()) {
        STIR_LOG(Warning) << "refinement-done checkpoint failed: "
                          << s.message();
      }
    }
  }
  publish_io_metrics();
  {
    obs::Tracer::ScopedSpan grouping_span(cfg.obs.tracer, "grouping");
    result->groupings =
        GroupUsers(result->refined, *db_, cfg.tie_break, pool.get());
  }
  obs::Tracer::ScopedSpan aggregate_span(cfg.obs.tracer, "aggregate");
  AggregateGroups(result);
}

}  // namespace stir::core
