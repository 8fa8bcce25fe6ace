#include "core/refinement.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "core/checkpoint.h"
#include "core/study_config.h"
#include "io/corpus.h"
#include "io/fault_fs.h"

namespace stir::core {

namespace {

/// Transient service failures (the fault injector's Unavailable bursts
/// and errors) are eligible for degraded-mode salvage; authoritative
/// answers (NotFound = outside coverage) and spent quotas are not.
bool IsTransientServiceFault(const Status& status) {
  return status.IsUnavailable() || status.IsIOError();
}

int64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

void FunnelStats::AccumulateUserCounts(const FunnelStats& other) {
  for (int q = 0; q < 5; ++q) quality_counts[q] += other.quality_counts[q];
  well_defined_users += other.well_defined_users;
  geocode_failures += other.geocode_failures;
  corrupt_window_users += other.corrupt_window_users;
  final_users += other.final_users;
  geocode_faulted += other.geocode_faulted;
  geocode_retried += other.geocode_retried;
  geocode_degraded += other.geocode_degraded;
  backoff_ms += other.backoff_ms;
}

RefinementPipeline::RefinementPipeline(const text::LocationParser* parser,
                                       geo::ReverseGeocoder* geocoder,
                                       const StudyConfig& config)
    : parser_(parser),
      geocoder_(geocoder),
      options_(config.refinement),
      metrics_(config.obs.metrics),
      tracer_(config.obs.tracer) {
  STIR_CHECK(parser != nullptr);
  STIR_CHECK(geocoder != nullptr);
  if (metrics_ != nullptr) {
    stage_parse_us_ = metrics_->GetCounter("funnel.stage.profile_parse_us");
    stage_geocode_us_ = metrics_->GetCounter("funnel.stage.geocode_us");
  }
}

StatusOr<geo::RegionId> RefinementPipeline::Geocode(
    const geo::LatLng& point, int64_t fault_index) const {
  if (!options_.faithful_xml_pipeline) {
    STIR_ASSIGN_OR_RETURN(geo::GeocodeResult result,
                          geocoder_->Reverse(point, fault_index));
    return result.region;
  }
  // Faithful mode: serialize the response to XML, parse it back, and
  // resolve the (state, county) pair against the gazetteer — exactly the
  // dance the original study performed against the Yahoo Open API.
  STIR_ASSIGN_OR_RETURN(std::string xml,
                        geocoder_->ReverseToXml(point, fault_index));
  STIR_ASSIGN_OR_RETURN(geo::GeocodeResult parsed,
                        geo::ReverseGeocoder::ParseResponse(xml));
  return geocoder_->db().FindCounty(parsed.state, parsed.county);
}

geo::RegionId RefinementPipeline::TextFallbackRegion(
    std::string_view text, geo::RegionId profile_region) const {
  text::ParsedLocation parsed = parser_->Parse(text);
  if (parsed.quality == text::LocationQuality::kWellDefined) {
    return parsed.region;
  }
  // A cross-state district name ("Jung-gu") is ambiguous on its own, but
  // the user's profile district is a strong prior when it is among the
  // candidates.
  if (parsed.quality == text::LocationQuality::kAmbiguous &&
      std::find(parsed.candidates.begin(), parsed.candidates.end(),
                profile_region) != parsed.candidates.end()) {
    return profile_region;
  }
  return geo::kInvalidRegion;
}

TweetFold RefinementPipeline::FoldTweet(const twitter::Tweet& tweet,
                                        int64_t fault_index,
                                        geo::RegionId profile_region) const {
  return FoldTweet(*tweet.gps, tweet.text, fault_index, profile_region);
}

TweetFold RefinementPipeline::FoldTweet(const geo::LatLng& gps,
                                        std::string_view text,
                                        int64_t fault_index,
                                        geo::RegionId profile_region) const {
  TweetFold fold;
  // Retry/backoff charges are attributed per fold by sampling this
  // thread's cumulative geocoder counters around the lookup (a fold runs
  // entirely on one thread). Fold deltas sum to the same totals whether
  // they are sampled per tweet, per user, or per run, so checkpoints and
  // streaming epochs all carry exact counters.
  geo::ReverseGeocoder::ThreadRetryStats retry_before =
      geo::ReverseGeocoder::CurrentThreadRetryStats();
  auto region = Geocode(gps, fault_index);
  if (region.ok()) {
    fold.region = *region;
  } else if (IsTransientServiceFault(region.status())) {
    fold.faulted = true;
    if (options_.degraded_text_fallback) {
      geo::RegionId fallback = TextFallbackRegion(text, profile_region);
      if (fallback != geo::kInvalidRegion) {
        fold.degraded = true;
        fold.region = fallback;
      }
    }
  }
  geo::ReverseGeocoder::ThreadRetryStats retry_after =
      geo::ReverseGeocoder::CurrentThreadRetryStats();
  fold.retries = retry_after.retries - retry_before.retries;
  fold.backoff_ms = retry_after.backoff_ms - retry_before.backoff_ms;
  return fold;
}

void RefinementPipeline::ApplyFold(const TweetFold& fold, FunnelStats* stats,
                                   std::vector<geo::RegionId>* regions) {
  if (fold.faulted) ++stats->geocode_faulted;
  if (fold.degraded) ++stats->geocode_degraded;
  stats->geocode_retried += fold.retries;
  stats->backoff_ms += fold.backoff_ms;
  if (fold.region == geo::kInvalidRegion) {
    ++stats->geocode_failures;
  } else {
    regions->push_back(fold.region);
  }
}

bool RefinementPipeline::RefineUser(
    const io::CorpusView& corpus, size_t user_row, FunnelStats& stats,
    RefinedUser* out,
    std::unordered_map<uint32_t, text::ParsedLocation>* parse_memo) const {
  // Quarantine gate: a user whose tweet rows touch a CRC-failed window
  // is dropped whole rather than folded from suspect bytes — partial
  // folds would make the report depend on *which* bytes rotted. The
  // check is O(1) when nothing is quarantined (the common case), so the
  // fault-free path stays byte-identical.
  if (corpus.quarantined_windows() > 0) {
    const uint64_t begin = corpus.user_tweet_begin(user_row);
    const uint64_t end = corpus.user_tweet_end(user_row);
    bool hit = false;
    if (corpus.grouped()) {
      hit = corpus.TweetRowsQuarantined(static_cast<size_t>(begin),
                                        static_cast<size_t>(end));
    } else {
      // Ungrouped corpora scatter rows; probe each row's window.
      for (uint64_t pos = begin; pos < end && !hit; ++pos) {
        const size_t row = corpus.user_tweet_row(pos);
        hit = corpus.TweetRowsQuarantined(row, row + 1);
      }
    }
    if (hit) {
      ++stats.corrupt_window_users;
      return false;
    }
  }
  // The arena interns profile strings, so equal strings share a ref and
  // the memo collapses them to one parse per shard.
  const uint32_t profile_ref = corpus.user_profile_ref(user_row);
  const text::ParsedLocation* parsed = nullptr;
  std::chrono::steady_clock::time_point t0;
  if (stage_parse_us_ != nullptr) t0 = std::chrono::steady_clock::now();
  auto it = parse_memo->find(profile_ref);
  if (it == parse_memo->end()) {
    it = parse_memo
             ->emplace(profile_ref,
                       parser_->Parse(corpus.user_profile_location(user_row)))
             .first;
  }
  parsed = &it->second;
  if (stage_parse_us_ != nullptr) stage_parse_us_->Increment(ElapsedUs(t0));
  ++stats.quality_counts[static_cast<int>(parsed->quality)];
  if (parsed->quality != text::LocationQuality::kWellDefined) return false;
  ++stats.well_defined_users;

  std::chrono::steady_clock::time_point geocode_t0;
  if (stage_geocode_us_ != nullptr) {
    geocode_t0 = std::chrono::steady_clock::now();
  }
  out->user = corpus.user_id(user_row);
  out->profile_region = parsed->region;
  out->total_tweets = corpus.user_total_tweets(user_row);
  out->tweet_regions.clear();
  const uint64_t begin = corpus.user_tweet_begin(user_row);
  const uint64_t end = corpus.user_tweet_end(user_row);
  for (uint64_t pos = begin; pos < end; ++pos) {
    const size_t row = corpus.user_tweet_row(pos);
    if (!corpus.tweet_has_gps(row)) continue;
    // The tweet row doubles as the fault key: for a corpus written in
    // dataset order it equals the tweet's dataset index, so the fault
    // schedule matches the stream engine's dataset-index keys.
    TweetFold fold = FoldTweet(corpus.tweet_gps(row), corpus.tweet_text(row),
                               static_cast<int64_t>(row), parsed->region);
    ApplyFold(fold, &stats, &out->tweet_regions);
  }
  if (stage_geocode_us_ != nullptr) {
    stage_geocode_us_->Increment(ElapsedUs(geocode_t0));
  }
  if (out->tweet_regions.empty()) return false;
  ++stats.final_users;
  return true;
}

void RefinementPipeline::PublishFunnelMetrics(const FunnelStats& stats) const {
  static const char* kQualityDropNames[4] = {
      "funnel.drop.profile_empty", "funnel.drop.profile_vague",
      "funnel.drop.profile_insufficient", "funnel.drop.profile_ambiguous"};
  obs::MetricsRegistry* m = metrics_;
  m->GetCounter("funnel.users.crawled")->Increment(stats.crawled_users);
  for (int q = 0; q < 4; ++q) {
    m->GetCounter(kQualityDropNames[q])->Increment(stats.quality_counts[q]);
  }
  m->GetCounter("funnel.users.well_defined")
      ->Increment(stats.well_defined_users);
  m->GetCounter("funnel.tweets.total")->Increment(stats.total_tweets);
  m->GetCounter("funnel.tweets.gps")->Increment(stats.gps_tweets);
  m->GetCounter("funnel.drop.geocode_failure")
      ->Increment(stats.geocode_failures);
  if (stats.corrupt_window_users > 0) {
    // Gated on nonzero so fault-free metric dumps stay byte-identical.
    m->GetCounter("funnel.drop.corrupt_window")
        ->Increment(stats.corrupt_window_users);
  }
  m->GetCounter("funnel.drop.no_geocoded_tweets")
      ->Increment(stats.well_defined_users - stats.final_users);
  m->GetCounter("funnel.users.final")->Increment(stats.final_users);
  if (stats.fault_injection_enabled) {
    m->GetCounter("funnel.resilience.faulted")
        ->Increment(stats.geocode_faulted);
    m->GetCounter("funnel.resilience.retried")
        ->Increment(stats.geocode_retried);
    m->GetCounter("funnel.resilience.degraded")
        ->Increment(stats.geocode_degraded);
    m->GetCounter("funnel.resilience.backoff_ms")
        ->Increment(stats.backoff_ms);
  }
}

std::vector<RefinedUser> RefinementPipeline::Run(
    const io::CorpusView& corpus, FunnelStats* funnel,
    common::ThreadPool* pool, StudyCheckpointer* checkpointer) const {
  obs::Tracer::ScopedSpan refinement_span(tracer_, "refinement");
  // Re-verify windows up front when storage faults that can rot pages
  // are armed (or corruption was already found), so every shard sees the
  // same quarantine set and the shard merge stays deterministic. Without
  // page-flip faults this is skipped entirely — no extra page touches.
  {
    io::FaultFs& fs = io::FaultFs::Instance();
    if (corpus.window_count() > 0 &&
        ((fs.enabled() && fs.options().page_flip_rate > 0.0) ||
         corpus.quarantined_windows() > 0)) {
      corpus.ReverifyAllWindows();
    }
  }
  FunnelStats local;
  FunnelStats& stats = funnel != nullptr ? *funnel : local;
  stats = FunnelStats{};
  stats.crawled_users = static_cast<int64_t>(corpus.user_count());
  stats.total_tweets = corpus.total_tweet_count();
  stats.gps_tweets = corpus.gps_tweet_count();

  const size_t user_count = corpus.user_count();
  const size_t shards = common::NumShards(pool, user_count);
  if (checkpointer != nullptr) checkpointer->InitShards(shards);
  // Contiguous user shards (a single one without a pool), each with
  // private outputs; the shard-ordered merge below makes the result
  // independent of execution interleaving and of the thread count.
  std::vector<FunnelStats> shard_stats(shards);
  std::vector<std::vector<RefinedUser>> shard_refined(shards);
  int64_t parent_span = refinement_span.id();
  common::ParallelForShards(
      pool, user_count, [&](size_t shard, size_t begin, size_t end) {
        // Worker threads have no ambient span; attach the shard span to
        // the refinement stage explicitly.
        int64_t span = tracer_ != nullptr
                           ? tracer_->BeginSpanUnder("refine.shard",
                                                     parent_span)
                           : obs::Tracer::kNoSpan;
        if (tracer_ != nullptr) {
          tracer_->AddAttribute(span, "shard", static_cast<int64_t>(shard));
          tracer_->AddAttribute(span, "users",
                                static_cast<int64_t>(end - begin));
        }
        size_t start = begin;
        if (checkpointer != nullptr) {
          if (const ShardProgress* restored =
                  checkpointer->RestoredShard(shard)) {
            shard_stats[shard] = restored->stats;
            shard_refined[shard] =
                checkpointer->TakeRestoredShardRefined(shard);
            start = std::max(start,
                             static_cast<size_t>(restored->next_user));
          }
        }
        // Page-release policy: a grouped corpus stores one user's tweets
        // contiguously, so a contiguous user range maps to a contiguous
        // tweet byte range we can hand back to the kernel once refined —
        // every stride of users and at the shard end, so even a
        // single-shard out-of-core scan stays flat. Ungrouped corpora
        // scatter rows, so no release is attempted (the kernel still
        // evicts under pressure; only the bound is weaker).
        constexpr size_t kReleaseUserStride = 1u << 16;
        size_t released_row =
            static_cast<size_t>(corpus.user_tweet_begin(begin));
        auto release_through = [&](size_t user) {
          if (!corpus.grouped()) return;
          const size_t row =
              static_cast<size_t>(corpus.user_tweet_begin(user));
          corpus.ReleaseTweetRows(released_row, row);
          released_row = row;
        };
        RefinedUser candidate;
        std::unordered_map<uint32_t, text::ParsedLocation> parse_memo;
        for (size_t i = start; i < end; ++i) {
          if (RefineUser(corpus, i, shard_stats[shard], &candidate,
                         &parse_memo)) {
            shard_refined[shard].push_back(std::move(candidate));
            candidate = RefinedUser{};
          }
          if (checkpointer != nullptr) {
            checkpointer->NoteUserProcessed(
                shard, static_cast<int64_t>(i + 1), shard_stats[shard],
                shard_refined[shard], i + 1 == end);
            if (checkpointer->ShouldStop()) break;
          }
          if ((i + 1) % kReleaseUserStride == 0) release_through(i + 1);
        }
        release_through(end);
        if (tracer_ != nullptr) tracer_->EndSpan(span);
      });

  obs::Tracer::ScopedSpan merge_span(tracer_, "refine.merge");
  size_t total = 0;
  for (const std::vector<RefinedUser>& part : shard_refined) {
    total += part.size();
  }
  std::vector<RefinedUser> refined;
  refined.reserve(total);
  for (size_t shard = 0; shard < shards; ++shard) {
    stats.AccumulateUserCounts(shard_stats[shard]);
    for (RefinedUser& user : shard_refined[shard]) {
      refined.push_back(std::move(user));
    }
  }

  // Retry/backoff totals are accumulated per user inside RefineUser (see
  // the thread-local sampling there); for a fresh geocoder they equal its
  // num_retries()/simulated_backoff_ms() totals.
  stats.fault_injection_enabled = geocoder_->fault_injection_enabled();
  if (metrics_ != nullptr) PublishFunnelMetrics(stats);
  return refined;
}

}  // namespace stir::core
