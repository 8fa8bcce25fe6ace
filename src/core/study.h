#ifndef STIR_CORE_STUDY_H_
#define STIR_CORE_STUDY_H_

#include <string>
#include <vector>

#include "common/fault.h"
#include "common/retry.h"
#include "core/grouping.h"
#include "core/refinement.h"
#include "core/study_config.h"
#include "geo/admin_db.h"
#include "geo/reverse_geocoder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/location_parser.h"
#include "twitter/dataset.h"

namespace stir::core {

/// Aggregates for one Top-k group — the quantities behind the paper's
/// Fig. 6 (avg number of tweet locations), Fig. 7 (user share) and the
/// slide-deck tweets-per-group figure.
struct GroupStats {
  int64_t users = 0;
  double user_share = 0.0;  ///< Fraction of final users, [0, 1].
  int64_t gps_tweets = 0;
  double tweet_share = 0.0;  ///< Fraction of geocoded GPS tweets.
  double avg_tweet_locations = 0.0;  ///< Mean distinct districts per user.
};

/// Full output of one study run.
struct StudyResult {
  FunnelStats funnel;
  GroupStats groups[kNumTopKGroups];
  /// User-weighted mean of distinct tweet districts over all final users
  /// ("they have ~3 tweet locations in average", §IV).
  double overall_avg_locations = 0.0;
  int64_t final_users = 0;
  /// Per-user detail (Table II rows, ranks, groups).
  std::vector<UserGrouping> groupings;
  std::vector<RefinedUser> refined;

  /// Observability output (empty unless config.obs enabled the collector;
  /// snapshotted from the per-run registry/tracer at the end of Run).
  obs::MetricsSnapshot metrics;
  obs::TraceSnapshot trace;

  /// True when the run stopped early at the durability test hook
  /// (config.durability.halt_after_users) — refinement progress is on
  /// disk, but funnel/groups in this result are partial and must not be
  /// reported. A resumed run completes them.
  bool incomplete = false;

  const GroupStats& group(TopKGroup g) const {
    return groups[static_cast<int>(g)];
  }

  /// Human-readable group table (one row per Top-k group).
  std::string GroupTableString() const;
  /// Human-readable funnel rendering (§III.B stages).
  std::string FunnelString() const;
};

/// Recomputes `result->groups`, `overall_avg_locations` and
/// `final_users` from `result->groupings`. Summation runs in groupings
/// order (= dataset user order), so the floating-point aggregates are
/// byte-stable for a fixed user order — the batch pipeline and the
/// incremental stream engine share this exact code path, which is part of
/// the streaming determinism contract (DESIGN.md §12).
void AggregateGroups(StudyResult* result);

/// The geocoder options a run of `config` uses, for the batch study and
/// the stream engine alike: `config.geocoder`, plus `injector` and
/// `config.retry` when a fault or crash knob is armed,
/// `config.obs.metrics`, and `config.obs.tracer` for one span per lookup
/// when `config.obs.trace_geocode_calls` is set. Pointers already set in
/// `config.geocoder` win.
geo::ReverseGeocoderOptions GeocoderOptionsFor(
    const StudyConfig& config, common::FaultInjector* injector);

/// The paper's end-to-end analysis: refinement funnel -> text-based
/// grouping -> Top-k classification -> group aggregates. Deterministic
/// for a given dataset and gazetteer, and for any `config.threads`
/// setting.
class CorrelationStudy {
 public:
  /// `db` must outlive the study. The config is copied. (The former
  /// CorrelationStudyOptions shim is gone — DESIGN.md §8 maps its
  /// fields onto StudyConfig.)
  explicit CorrelationStudy(const geo::AdminDb* db,
                            const StudyConfig& config = StudyConfig());

  /// Runs the study straight off an arena corpus (io::CorpusView) — no
  /// Dataset materialization, resident set bounded by the refinement
  /// working set. A configured `durability.checkpoint_dir` makes the run
  /// crash-safe (DESIGN.md §9).
  StudyResult Run(const io::CorpusView& corpus) const;

  /// Adapter for row-oriented callers: encodes `dataset` into an
  /// in-memory arena image (io::CorpusView::FromDataset) and runs the
  /// view path, so the output is byte-identical to Run over a corpus
  /// file written from the same dataset.
  StudyResult Run(const twitter::Dataset& dataset) const;

  const geo::AdminDb& db() const { return *db_; }
  const text::LocationParser& parser() const { return parser_; }
  const StudyConfig& config() const { return config_; }

 private:
  /// The instrumented pipeline stages (refine -> group -> aggregate),
  /// run with the *effective* config (observability pointers resolved).
  /// Split out of Run so the "study" root span closes before Run
  /// snapshots the sinks into the result.
  void RunStages(const io::CorpusView& corpus, const StudyConfig& cfg,
                 StudyResult* result) const;

  const geo::AdminDb* db_;
  StudyConfig config_;
  text::LocationParser parser_;
};

}  // namespace stir::core

#endif  // STIR_CORE_STUDY_H_
