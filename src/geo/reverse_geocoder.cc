#include "geo/reverse_geocoder.h"

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/xml.h"
#include "geo/geocode_journal.h"
#include "geo/geohash.h"

namespace stir::geo {

namespace {

/// Deterministic pseudo-town (dong-level) name for a point inside a
/// county. The original API returned a real <town>; the study never uses
/// it, but keeping the element exercises the full response schema.
std::string SynthesizeTown(const Region& region, const LatLng& point) {
  uint64_t h = HashCombine(Fnv1a64(region.county),
                           Mix64(static_cast<uint64_t>(
                               static_cast<int64_t>(point.lat * 200.0) * 4096 +
                               static_cast<int64_t>(point.lng * 200.0))));
  int ward = static_cast<int>(h % 9) + 1;
  // Strip a trailing "-gu"/"-si"/"-gun" from the county stem.
  std::string stem = region.county;
  size_t dash = stem.rfind('-');
  if (dash != std::string::npos) stem = stem.substr(0, dash);
  return StrFormat("%s %d-dong", stem.c_str(), ward);
}

}  // namespace

ReverseGeocoder::ReverseGeocoder(const AdminDb* db,
                                 ReverseGeocoderOptions options)
    : db_(db),
      options_(options),
      metered_(options.quota >= 0 ||
               (options.enable_cache && options.journal != nullptr)),
      retry_policy_(options.retry) {
  STIR_CHECK(db != nullptr);
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    m_queries_ = m->GetCounter("geocode.queries");
    m_cache_hits_ = m->GetCounter("geocode.cache_hits");
    m_cache_misses_ = m->GetCounter("geocode.cache_misses");
    m_cache_contention_ = m->GetCounter("geocode.cache_contention");
    m_faulted_ = m->GetCounter("geocode.faulted");
    m_retried_ = m->GetCounter("geocode.retried");
    m_backoff_ms_ = m->GetCounter("geocode.backoff_ms");
    m_attempts_ = m->GetHistogram("geocode.attempts", {1, 2, 3, 4, 6, 8});
  }
}

int64_t ReverseGeocoder::quota_remaining() const {
  if (options_.quota < 0) return -1;
  int64_t used = quota_used_.load(std::memory_order_relaxed);
  return options_.quota > used ? options_.quota - used : 0;
}

void ReverseGeocoder::ResetQuota() {
  quota_used_.store(0, std::memory_order_relaxed);
}

ReverseGeocoder::CacheShard& ReverseGeocoder::ShardFor(
    std::string_view cache_key) {
  return cache_shards_[Fnv1a64(cache_key) % kCacheShards];
}

std::unique_lock<std::mutex> ReverseGeocoder::LockShard(CacheShard& shard) {
  if (m_cache_contention_ == nullptr) {
    return std::unique_lock<std::mutex>(shard.mu);
  }
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    m_cache_contention_->Increment();
    lock.lock();
  }
  return lock;
}

void ReverseGeocoder::PreloadCache(std::string_view cache_key,
                                   const GeocodeResult& result) {
  if (!options_.enable_cache) return;
  CacheShard& shard = ShardFor(cache_key);
  std::unique_lock<std::mutex> lock = LockShard(shard);
  shard.map.try_emplace(std::string(cache_key), result);
}

template <typename Direct>
auto ReverseGeocoder::Lookup(int64_t fault_index, RetryCharge* charge,
                             Direct direct) -> decltype(direct()) {
  obs::Tracer::ScopedSpan span(options_.tracer, "geocode");
  if (charge != nullptr) *charge = RetryCharge{};
  common::FaultInjector* fault = options_.fault_injector;
  // The crash hook fires before any fault/cache logic so "Nth lookup"
  // means the same thing whether or not fault knobs are active.
  if (fault != nullptr) fault->OnLookupMaybeCrash();
  if (fault == nullptr || !fault->enabled()) {
    obs::RecordSample(m_attempts_, 1);
    return direct();
  }

  if (fault_index < 0) fault_index = fault->NextIndex();
  int attempts = 0;
  for (;;) {
    common::FaultDecision decision = fault->Decide(fault_index, attempts);
    ++attempts;
    if (decision.status.ok()) {
      // The attempt reached the service; whatever it answers (including
      // NotFound / a spent quota) is a successful round trip.
      obs::RecordSample(m_attempts_, attempts);
      return direct();
    }
    if (!retry_policy_.ShouldRetry(decision.status, attempts)) {
      obs::IncrementCounter(m_faulted_);
      obs::RecordSample(m_attempts_, attempts);
      return decision.status;
    }
    int64_t backoff = retry_policy_.BackoffMs(
        attempts, static_cast<uint64_t>(fault_index));
    if (charge != nullptr) {
      ++charge->retries;
      charge->backoff_ms += backoff;
    }
    obs::IncrementCounter(m_retried_);
    obs::IncrementCounter(m_backoff_ms_, backoff);
  }
}

StatusOr<GeocodeResult> ReverseGeocoder::Reverse(const LatLng& point,
                                                 int64_t fault_index,
                                                 RetryCharge* charge) {
  return Lookup(fault_index, charge, [&] { return ReverseDirect(point); });
}

StatusOr<RegionId> ReverseGeocoder::Locate(const LatLng& point,
                                           int64_t fault_index,
                                           RetryCharge* charge) {
  return Lookup(fault_index, charge, [&] { return LocateDirect(point); });
}

StatusOr<RegionId> ReverseGeocoder::LocateDirect(const LatLng& point) {
  if (metered_) {
    STIR_ASSIGN_OR_RETURN(GeocodeResult result, ReverseDirect(point));
    return result.region;
  }
  // Nothing can observe the memo or the spent quota, so neither is kept.
  obs::IncrementCounter(m_queries_);
  return db_->Locate(point);
}

StatusOr<GeocodeResult> ReverseGeocoder::ReverseDirect(const LatLng& point) {
  obs::IncrementCounter(m_queries_);
  if (!point.IsValid()) {
    return Status::InvalidArgument("invalid coordinate: " + point.ToString());
  }

  std::string cache_key;
  if (options_.enable_cache) {
    cache_key = GeohashEncode(point, kGeocodeCachePrecision);
    CacheShard& shard = ShardFor(cache_key);
    std::unique_lock<std::mutex> lock = LockShard(shard);
    auto it = shard.map.find(cache_key);
    if (it != shard.map.end()) {
      obs::IncrementCounter(m_cache_hits_);
      return it->second;
    }
    obs::IncrementCounter(m_cache_misses_);
  }

  if (options_.quota >= 0) {
    // CAS so concurrent misses can never overspend the quota.
    int64_t used = quota_used_.load(std::memory_order_relaxed);
    do {
      if (used >= options_.quota) {
        return Status::ResourceExhausted("reverse geocoding quota exhausted");
      }
    } while (!quota_used_.compare_exchange_weak(used, used + 1,
                                                std::memory_order_relaxed));
  } else {
    quota_used_.fetch_add(1, std::memory_order_relaxed);
  }

  STIR_ASSIGN_OR_RETURN(RegionId id, db_->Locate(point));
  const Region& region = db_->region(id);
  GeocodeResult result;
  result.country = region.country;
  result.state = region.state;
  result.county = region.county;
  result.town = SynthesizeTown(region, point);
  result.region = id;

  if (options_.enable_cache) {
    // Journal before publishing to the cache: write-ahead order
    // guarantees any result other threads can observe (and build state
    // on) is already durable.
    if (options_.journal != nullptr && options_.journal->is_open()) {
      Status s = options_.journal->Append(cache_key, result);
      if (!s.ok() && !journal_append_failed_.exchange(true)) {
        STIR_LOG(Warning) << "geocode journal append failed (journal "
                             "abandoned for this run): "
                          << s.message();
      }
    }
    CacheShard& shard = ShardFor(cache_key);
    std::unique_lock<std::mutex> lock = LockShard(shard);
    // try_emplace keeps the first writer's entry on a racing double-miss
    // (both computed the same deterministic result anyway).
    shard.map.try_emplace(std::move(cache_key), result);
  }
  return result;
}

StatusOr<std::string> ReverseGeocoder::ReverseToXml(const LatLng& point,
                                                    int64_t fault_index,
                                                    RetryCharge* charge) {
  STIR_ASSIGN_OR_RETURN(GeocodeResult r, Reverse(point, fault_index, charge));
  XmlNode root("ResultSet");
  root.AddAttribute("version", "1.0");
  XmlNode& result = root.AddChild("Result");
  result.AddChild("latitude").set_text(StrFormat("%.6f", point.lat));
  result.AddChild("longitude").set_text(StrFormat("%.6f", point.lng));
  XmlNode& location = result.AddChild("location");
  location.AddChild("country").set_text(r.country);
  location.AddChild("state").set_text(r.state);
  location.AddChild("county").set_text(r.county);
  location.AddChild("town").set_text(r.town);
  return "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n" + root.ToString();
}

StatusOr<GeocodeResult> ReverseGeocoder::ParseResponse(std::string_view xml) {
  STIR_ASSIGN_OR_RETURN(auto root, ParseXml(xml));
  if (root->name() != "ResultSet") {
    return Status::InvalidArgument("expected <ResultSet> root, got <" +
                                   root->name() + ">");
  }
  const XmlNode* result = root->FindChild("Result");
  if (result == nullptr) return Status::InvalidArgument("missing <Result>");
  const XmlNode* location = result->FindChild("location");
  if (location == nullptr) {
    return Status::InvalidArgument("missing <location>");
  }
  GeocodeResult out;
  out.country = location->ChildText("country");
  out.state = location->ChildText("state");
  out.county = location->ChildText("county");
  out.town = location->ChildText("town");
  if (out.state.empty() || out.county.empty()) {
    return Status::InvalidArgument("response missing <state>/<county>");
  }
  return out;
}

}  // namespace stir::geo
