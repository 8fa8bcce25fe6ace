#ifndef STIR_GEO_REVERSE_GEOCODER_H_
#define STIR_GEO_REVERSE_GEOCODER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/fault.h"
#include "common/retry.h"
#include "common/status.h"
#include "geo/admin_db.h"
#include "geo/latlng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace stir::geo {

class GeocodeJournal;

/// Structured reverse-geocoding result: the four elements the Yahoo Open
/// API returned under <location> (see paper Fig. 5). The study consumes
/// <state> and <county>.
struct GeocodeResult {
  std::string country;
  std::string state;
  std::string county;
  std::string town;
  RegionId region = kInvalidRegion;
};

/// What the retry loop charged one lookup: attempts retried after an
/// injected transient fault, and the simulated backoff they cost (both
/// zero without an active fault injector).
struct RetryCharge {
  int64_t retries = 0;
  int64_t backoff_ms = 0;
};

/// Geohash precision of the memo's cache keys: 7 chars is ~±76 m, far
/// below district size.
inline constexpr int kGeocodeCachePrecision = 7;

/// Behavioural knobs for the geocoding service simulation.
struct ReverseGeocoderOptions {
  /// Memoize results by geohash cell of kGeocodeCachePrecision chars
  /// (the paper's crawl hit the API once per distinct coordinate;
  /// caching reproduces that cost profile).
  bool enable_cache = true;
  /// Maximum lookups before the service returns ResourceExhausted
  /// (simulating an API quota); <0 disables.
  int64_t quota = -1;
  /// Optional fault hook (not owned; must outlive the geocoder; null or
  /// all-knobs-off disables). Consulted once per lookup *attempt*, before
  /// the cache, so fault placement is a pure function of the supplied
  /// fault index — never of cache state or thread interleaving.
  common::FaultInjector* fault_injector = nullptr;
  /// Retry schedule for injected transient failures (engaged only when a
  /// fault injector is active). Backoff is simulated, never slept.
  common::RetryPolicyOptions retry;
  /// Optional observability sinks (not owned; must outlive the geocoder;
  /// null disables — the pre-observability code path, byte for byte).
  /// Metrics: `geocode.queries`, `geocode.cache_hits` / `.cache_misses` /
  /// `.cache_contention` (contended stripe acquisitions), `geocode.faulted`
  /// / `.retried` / `.backoff_ms`, and the
  /// `geocode.attempts` histogram (attempts per lookup, retries included).
  /// The tracer gets one "geocode" span per lookup (DESIGN.md §8).
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Optional write-ahead geocode journal (not owned; must outlive the
  /// geocoder; null disables). Every cache-miss resolution is appended,
  /// so a resumed run can PreloadCache the journal and answer all
  /// previously-resolved coordinates without spending quota (DESIGN.md
  /// §9). Requires enable_cache; append failures are logged once and
  /// never fail a lookup.
  GeocodeJournal* journal = nullptr;
};

/// Reverse geocoder over an AdminDb, shaped like the web API the paper
/// used: coordinates in, an XML <ResultSet> out. `Locate` is the study's
/// hot path (a RegionId, no strings); `Reverse` is the simulated API's
/// structured answer (strings, geohash memo, town); `ReverseToXml` +
/// `ParseResponse` reproduce the exact serialize/parse pipeline of the
/// original study (and are what the faithful-mode pipeline exercises).
///
/// Thread-safe: the memoization cache is striped across mutex-guarded
/// shards (selected by cache-key hash) and the spent quota is an atomic,
/// so the parallel study pipeline can share one instance across worker
/// threads. Quota is enforced with a CAS loop, so concurrent lookups
/// never spend more than `options.quota` total. Query, hit and fault
/// totals live in the attached registry (`geocode.*`); each lookup's
/// retry charges come back through its `charge` out-parameter.
class ReverseGeocoder {
 public:
  /// `db` must outlive the geocoder.
  explicit ReverseGeocoder(const AdminDb* db,
                           ReverseGeocoderOptions options = {});

  /// Structured lookup. NotFound outside coverage; ResourceExhausted once
  /// the simulated quota is spent; InvalidArgument for bad coordinates;
  /// Unavailable for an injected (and retried-past-budget) service fault.
  ///
  /// `fault_index` keys the fault schedule when a FaultInjector is
  /// configured: callers with a stable per-call identity (the refinement
  /// pipeline passes the tweet's dataset index) get fault placement that
  /// is bit-identical across thread counts. The default (-1) claims the
  /// injector's next sequence index, which is deterministic for serial
  /// call sites only. A non-null `charge` receives this lookup's retries
  /// and simulated backoff.
  StatusOr<GeocodeResult> Reverse(const LatLng& point,
                                  int64_t fault_index = -1,
                                  RetryCharge* charge = nullptr);

  /// The study's lookup: the district alone. Same crash hook, fault
  /// schedule, retry loop, counters and span as Reverse, but it
  /// renders no strings. With a finite quota, or a journal and the cache,
  /// it spends quota and consults the geohash memo exactly as Reverse
  /// does; otherwise nothing can observe either, and it skips both.
  /// Without the memo each point gets its own nearest district, in any
  /// lookup order; with it, two points of one geohash cell share
  /// whichever answer came first (DESIGN.md §17).
  StatusOr<RegionId> Locate(const LatLng& point, int64_t fault_index = -1,
                            RetryCharge* charge = nullptr);

  /// Same lookup rendered as the Yahoo-shaped XML document.
  StatusOr<std::string> ReverseToXml(const LatLng& point,
                                     int64_t fault_index = -1,
                                     RetryCharge* charge = nullptr);

  /// Pre-warms the memoization cache with a previously-resolved entry
  /// (journal replay). First writer wins on duplicate keys; no-op with
  /// the cache disabled. Preloaded entries are hits: they spend no quota
  /// and are not re-journaled.
  void PreloadCache(std::string_view cache_key, const GeocodeResult& result);

  /// Parses a ReverseToXml document back into a GeocodeResult (region id
  /// is not recovered; resolve it against an AdminDb if needed).
  static StatusOr<GeocodeResult> ParseResponse(std::string_view xml);

  /// Lookups left under a finite quota (-1 when unlimited).
  int64_t quota_remaining() const;
  void ResetQuota();

  const AdminDb& db() const { return *db_; }

  /// True when a fault injector with at least one active knob is wired in
  /// (the pipeline gates its degraded-mode reporting on this).
  bool fault_injection_enabled() const {
    return options_.fault_injector != nullptr &&
           options_.fault_injector->enabled();
  }

  /// Number of mutex-striped cache shards.
  static constexpr int kCacheShards = 16;

 private:
  struct CacheShard {
    std::mutex mu;
    std::unordered_map<std::string, GeocodeResult> map;
  };

  CacheShard& ShardFor(std::string_view cache_key);

  /// Locks a cache stripe, counting contended acquisitions when metrics
  /// are attached (a failed try_lock means another worker held the
  /// stripe).
  std::unique_lock<std::mutex> LockShard(CacheShard& shard);

  /// One lookup of Reverse or Locate: the per-call trace span, crash
  /// hook, fault schedule and retry loop around `direct`, the
  /// fault-free lookup. Fills a non-null `charge`.
  template <typename Direct>
  auto Lookup(int64_t fault_index, RetryCharge* charge, Direct direct)
      -> decltype(direct());

  /// The fault-free lookup (cache, quota, AdminDb) — the pre-fault-layer
  /// behaviour, byte for byte.
  StatusOr<GeocodeResult> ReverseDirect(const LatLng& point);
  /// Locate's fault-free lookup: ReverseDirect's region when metered,
  /// else one query count and AdminDb::Locate.
  StatusOr<RegionId> LocateDirect(const LatLng& point);

  const AdminDb* db_;
  ReverseGeocoderOptions options_;
  /// A finite quota meters every lookup, and a journal records the memo's
  /// misses; either way Locate spends and fills them as Reverse does.
  bool metered_;
  common::RetryPolicy retry_policy_;
  CacheShard cache_shards_[kCacheShards];
  std::atomic<int64_t> quota_used_{0};
  std::atomic<bool> journal_append_failed_{false};

  // Observability handles, resolved once at construction (all null when
  // options_.metrics is null, which keeps the hot path branch-predictable
  // and timing-free).
  obs::Counter* m_queries_ = nullptr;
  obs::Counter* m_cache_hits_ = nullptr;
  obs::Counter* m_cache_misses_ = nullptr;
  obs::Counter* m_cache_contention_ = nullptr;
  obs::Counter* m_faulted_ = nullptr;
  obs::Counter* m_retried_ = nullptr;
  obs::Counter* m_backoff_ms_ = nullptr;
  obs::Histogram* m_attempts_ = nullptr;
};

}  // namespace stir::geo

#endif  // STIR_GEO_REVERSE_GEOCODER_H_
