#ifndef STIR_CORE_REFINEMENT_H_
#define STIR_CORE_REFINEMENT_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "geo/reverse_geocoder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/location_parser.h"
#include "twitter/model.h"

namespace stir {
struct StudyConfig;
}

namespace stir::io {
class CorpusView;
}

namespace stir::core {

class StudyCheckpointer;

/// A user who survived both refinement gates (§III.B): a well-defined
/// profile location and at least one geocodable GPS tweet.
struct RefinedUser {
  twitter::UserId user = twitter::kInvalidUser;
  geo::RegionId profile_region = geo::kInvalidRegion;
  /// District of each GPS tweet, in dataset order.
  std::vector<geo::RegionId> tweet_regions;
  int64_t total_tweets = 0;
};

/// Per-stage accounting of the paper's data-collection funnel
/// (52.2k crawled -> ~30k well-defined -> ... -> ~1k final users).
struct FunnelStats {
  int64_t crawled_users = 0;
  /// Users by profile-location quality, indexed by text::LocationQuality.
  int64_t quality_counts[5] = {0, 0, 0, 0, 0};
  int64_t well_defined_users = 0;
  /// Full corpus size (counters, not materialized records).
  int64_t total_tweets = 0;
  /// Materialized GPS-tagged tweets across all users.
  int64_t gps_tweets = 0;
  /// GPS tweets of well-defined users that failed reverse geocoding and
  /// were dropped (outside coverage, spent quota, or an unsalvageable
  /// service fault).
  int64_t geocode_failures = 0;
  /// Users dropped before any gate because their tweet rows land in a
  /// quarantined (CRC-failed) corpus window — see io::CorpusView's window
  /// quarantine. Zero unless storage corruption was detected, so the
  /// funnel invariant crawled == sum(quality_counts) only bends when data
  /// was actually lost (crawled == sum(quality) + corrupt_window then).
  int64_t corrupt_window_users = 0;
  /// Well-defined users with >= 1 geocoded GPS tweet — the final sample.
  int64_t final_users = 0;

  /// --- Failure-model accounting (all zero unless a FaultInjector was
  /// active; `fault_injection_enabled` gates the fault block in reports
  /// so fault-free output stays byte-identical). ---
  bool fault_injection_enabled = false;
  /// Geocode lookups whose final status was an injected service fault
  /// (after retries); each one either degrades or joins geocode_failures.
  int64_t geocode_faulted = 0;
  /// Retry attempts the geocoder spent on injected transient faults.
  int64_t geocode_retried = 0;
  /// Faulted lookups salvaged by the degraded text-fallback path.
  int64_t geocode_degraded = 0;
  /// Simulated retry backoff charged by the geocoder, in ms.
  int64_t backoff_ms = 0;

  /// Adds `other`'s per-user counters (quality histogram, well-defined,
  /// geocode failures, final users, retry/backoff charges) into this.
  /// Corpus-wide fields (crawled_users, total_tweets, gps_tweets) are
  /// left untouched: shards accumulate only what they counted, the caller
  /// sets the globals once. Addition is commutative and associative, so
  /// any shard merge order yields the same totals as a serial pass.
  void AccumulateUserCounts(const FunnelStats& other);
};

/// Options for the refinement pass.
struct RefinementOptions {
  /// Route every reverse-geocode through the XML serialize/parse path,
  /// byte-for-byte reproducing the original Yahoo-API pipeline (slower;
  /// the structured path is semantically identical and is the default).
  bool faithful_xml_pipeline = false;
  /// Degraded mode: when a geocode fails with a *transient* service fault
  /// (Unavailable/IOError — injected outages; never NotFound, which is an
  /// authoritative "outside coverage"), fall back to parsing the tweet
  /// text with the gazetteer location parser. A well-defined parse — or
  /// an ambiguous one whose candidates include the user's profile
  /// district — salvages the tweet (counted in FunnelStats::
  /// geocode_degraded); otherwise the tweet is dropped.
  bool degraded_text_fallback = true;
};

/// The outcome of folding one GPS tweet through the geocode + salvage
/// step, with the retry charges it incurred. A fold is a pure function of
/// (tweet, fault_index, profile_region) for a given geocoder
/// configuration, so the streaming engine caches folds and replays them
/// without re-consulting the geocoder — re-geocoding would double-charge
/// the fault injector, whose decisions fire before the cache.
struct TweetFold {
  /// Resolved district; kInvalidRegion means the tweet was dropped.
  geo::RegionId region = geo::kInvalidRegion;
  /// Final status was an injected transient service fault.
  bool faulted = false;
  /// Faulted but salvaged by the degraded text-fallback path.
  bool degraded = false;
  /// Retry attempts and simulated backoff charged by this fold.
  geo::RetryCharge charge;
};

/// The §III.B refinement pipeline: parse profile locations, drop vague /
/// insufficient / ambiguous ones, reverse-geocode GPS tweets, keep users
/// with at least one geocoded tweet.
class RefinementPipeline {
 public:
  /// `parser` and `geocoder` must outlive the pipeline. The parser's and
  /// geocoder's AdminDb should be the same gazetteer. Reads
  /// `config.refinement` plus the observability sinks in `config.obs`
  /// (the *effective* pointers — a caller that wants per-run instances
  /// fills them in first, the way CorrelationStudy::Run does).
  RefinementPipeline(const text::LocationParser* parser,
                     geo::ReverseGeocoder* geocoder,
                     const StudyConfig& config);

  /// Runs the funnel over an arena corpus (io::CorpusView) without
  /// materializing users or tweets. `funnel` receives the accounting.
  /// The fault key of tweet row `r` is `r` itself, which equals the
  /// tweet's dataset index for a corpus written in dataset order.
  ///
  /// With a non-null `pool` carrying workers, users are partitioned into
  /// contiguous shards refined in parallel and merged in shard order, so
  /// the refined vector and funnel are bit-identical to the serial run for
  /// any thread count (the geocoder must then be thread-safe, which
  /// geo::ReverseGeocoder is; a finite geocoder quota or a geocode journal
  /// can make parallel results diverge: which lookup exhausts the quota
  /// is a race, and both switch on the geohash memo, where the first of
  /// two points in one cell answers for both). Each shard advises its
  /// consumed tweet pages away
  /// (madvise) once refined, keeping the resident set bounded by the
  /// shard working set rather than the file.
  ///
  /// A non-null `checkpointer` enables crash-safe progress (DESIGN.md §9):
  /// each shard restores the checkpointed position/counters and reports
  /// every completed user back, so a killed run resumes at the last
  /// durable user boundary with byte-identical final output.
  std::vector<RefinedUser> Run(const io::CorpusView& corpus,
                               FunnelStats* funnel,
                               common::ThreadPool* pool = nullptr,
                               StudyCheckpointer* checkpointer = nullptr) const;

  /// Folds one GPS tweet: geocode (with `fault_index` as the stable fault
  /// key), degraded-mode salvage against `profile_region`, and the retry /
  /// backoff the geocoder charged that one lookup. Both the batch
  /// RefineUser loop and the incremental stream engine are sums of these
  /// folds, which is what makes them byte-equivalent.
  TweetFold FoldTweet(const twitter::Tweet& tweet, int64_t fault_index,
                      geo::RegionId profile_region) const;

  /// Field overload of FoldTweet: `gps` and `text` are the tweet's GPS
  /// fix and body (the only fields a fold reads), so the batch funnel
  /// folds straight out of the mapped columns. The Tweet overload
  /// delegates here.
  TweetFold FoldTweet(const geo::LatLng& gps, std::string_view text,
                      int64_t fault_index, geo::RegionId profile_region) const;

  /// Applies one fold's accounting: bumps the funnel's fault / retry /
  /// failure counters and appends the resolved region to `regions` (when
  /// the tweet survived). Commutative across folds except for the region
  /// append, which preserves call order.
  static void ApplyFold(const TweetFold& fold, FunnelStats* stats,
                        std::vector<geo::RegionId>* regions);

 private:
  /// `fault_index` is the tweet's global dataset index — a stable,
  /// thread-count-independent key for the geocoder's fault schedule.
  /// `charge` receives the lookup's retries and simulated backoff.
  StatusOr<geo::RegionId> Geocode(const geo::LatLng& point,
                                  int64_t fault_index,
                                  geo::RetryCharge* charge) const;

  /// Degraded-mode salvage: district named in the tweet text, if any
  /// (see RefinementOptions::degraded_text_fallback). kInvalidRegion
  /// when the text does not resolve.
  geo::RegionId TextFallbackRegion(std::string_view text,
                                   geo::RegionId profile_region) const;

  /// Refines user row `user_row` (and its CSR tweet range, read straight
  /// from the mapped columns) into `out`, updating `stats`' per-user
  /// counters. Returns true when the user survives both gates.
  /// `parse_memo` caches parses keyed by the arena string ref — interning
  /// makes duplicate profile strings share a ref, so each unique string
  /// parses once per shard. Parsing is pure, so the memo cannot change
  /// any output byte.
  bool RefineUser(const io::CorpusView& corpus, size_t user_row,
                  FunnelStats& stats, RefinedUser* out,
                  std::unordered_map<uint32_t, text::ParsedLocation>*
                      parse_memo) const;

  /// Publishes the merged funnel accounting as per-stage drop counters
  /// (`funnel.drop.*`, `funnel.users.*`, `funnel.tweets.*`) — the
  /// invariant the smoke test checks: profile drops sum to
  /// crawled - well_defined, and no_geocoded_tweets to
  /// well_defined - final.
  void PublishFunnelMetrics(const FunnelStats& stats) const;

  const text::LocationParser* parser_;
  geo::ReverseGeocoder* geocoder_;
  RefinementOptions options_;

  // Observability (null when disabled — the pre-observability path).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* stage_parse_us_ = nullptr;
  obs::Counter* stage_geocode_us_ = nullptr;
};

}  // namespace stir::core

#endif  // STIR_CORE_REFINEMENT_H_
