// bench_stream: ingest throughput and index-swap latency for the
// incremental streaming engine (DESIGN.md §12).
//
// Generates a Korean-preset corpus, runs the one-shot batch study as the
// ground truth, then replays the same tweet log through StreamEngine at
// several epoch sizes. For each epoch size it reports sustained ingest
// throughput (tweets/s, seal cost included) and the latency distribution
// of the sealing AddTweet calls — the calls that rebuild and RCU-swap a
// fresh generation — as swap p50/p99. A final equivalence gate checks
// the last sealed generation answers byte-identically to the batch index
// and that its inference evidence equals the batch evidence build.
//
// Usage: bench_stream [scale] [--json <path>]
//
// --json writes the machine-readable shape shared with bench_perf and
// bench_infer (bench_util.h): a "host" block, then
// {"benchmarks":[{"name","iterations","ns_per_op",...}]}. The
// bench_snapshots target of a Release build writes BENCH_stream.json
// from a scale-1.0 run.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "infer/inference_index.h"
#include "serve/protocol.h"
#include "serve/study_index.h"
#include "stream/engine.h"
#include "twitter/api.h"

namespace stir::bench {
namespace {

struct Args {
  double scale = 1.0;
  std::string json_path;
};

bool ParseBenchArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) return false;
      args->json_path = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      double scale = std::atof(argv[i]);
      if (scale > 0.0) args->scale = scale;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

struct IngestResult {
  double seconds = 0.0;        ///< Whole-log ingest wall time.
  int64_t tweets = 0;
  int64_t seals = 0;
  double swap_p50_us = 0.0;    ///< Latency of sealing AddTweet calls.
  double swap_p99_us = 0.0;
  std::shared_ptr<const serve::StudyIndex> index;
  std::shared_ptr<const infer::InferenceIndex> infer_index;
  int64_t generation = 0;
  int64_t epochs_sealed = 0;
};

/// Replays the full log through a fresh engine with `epoch_size`,
/// timing every auto-sealing AddTweet (tweet count hits the epoch
/// boundary) separately from the bulk of the fold-only calls.
IngestResult RunIngest(const geo::AdminDb& db,
                       const twitter::Dataset& dataset, int64_t epoch_size) {
  using Clock = std::chrono::steady_clock;
  stream::StreamOptions options;
  options.epoch_size = epoch_size;
  stream::StreamEngine engine(&db, StudyConfig{}, options);
  Status status = engine.Open();
  IngestResult result;
  if (!status.ok()) {
    std::fprintf(stderr, "engine open failed: %s\n",
                 status.message().c_str());
    return result;
  }
  for (const twitter::User& user : dataset.users()) {
    engine.AddUser(user);
  }
  std::vector<int64_t> swap_us;
  int64_t since_seal = 0;
  const auto start = Clock::now();
  twitter::StreamingApi api(&dataset);
  api.Replay([&](size_t dataset_index, const twitter::Tweet& tweet) {
    ++result.tweets;
    const bool seals = ++since_seal == epoch_size;
    if (seals) {
      const auto t0 = Clock::now();
      engine.AddTweet(tweet, static_cast<int64_t>(dataset_index));
      swap_us.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - t0)
                            .count());
      since_seal = 0;
    } else {
      engine.AddTweet(tweet, static_cast<int64_t>(dataset_index));
    }
  });
  engine.SealEpoch();  // Flush the sub-epoch tail.
  result.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() -
                                                                start)
          .count();
  result.seals = static_cast<int64_t>(swap_us.size());
  std::sort(swap_us.begin(), swap_us.end());
  if (!swap_us.empty()) {
    result.swap_p50_us = static_cast<double>(swap_us[swap_us.size() / 2]);
    result.swap_p99_us =
        static_cast<double>(swap_us[(swap_us.size() * 99) / 100]);
  }
  result.index = engine.CurrentIndex();
  result.infer_index = engine.CurrentInferIndex();
  result.generation = engine.generation();
  result.epochs_sealed = engine.epochs_sealed();
  return result;
}

/// Byte-compares the protocol answers the two indexes give to the same
/// requests: the topk summary plus a spread of user lookups.
bool AnswersMatch(const serve::StudyIndex& streamed,
                  const serve::StudyIndex& batch) {
  serve::Request topk;
  topk.id = 1;
  topk.method = serve::Method::kTopkSummary;
  if (serve::ExecuteOnIndex(streamed, topk) !=
      serve::ExecuteOnIndex(batch, topk)) {
    return false;
  }
  const auto& users = batch.users();
  const size_t step = std::max<size_t>(1, users.size() / 64);
  for (size_t i = 0; i < users.size(); i += step) {
    serve::Request lookup;
    lookup.id = 2;
    lookup.method = serve::Method::kLookupUser;
    lookup.user = users[i].user;
    if (serve::ExecuteOnIndex(streamed, lookup) !=
        serve::ExecuteOnIndex(batch, lookup)) {
      return false;
    }
  }
  return true;
}

/// Field-by-field equality of two evidence generations.
bool EvidenceMatches(const infer::InferenceIndex& streamed,
                     const infer::InferenceIndex& batch) {
  if (streamed.user_count() != batch.user_count()) return false;
  for (size_t row = 0; row < batch.user_count(); ++row) {
    const infer::UserEvidenceView a = streamed.UserAt(row);
    const infer::UserEvidenceView b = batch.UserAt(row);
    if (a.user != b.user || a.tweets != b.tweets ||
        a.gps_tweets != b.gps_tweets || a.text_votes != b.text_votes ||
        a.regions.size() != b.regions.size()) {
      return false;
    }
    for (size_t i = 0; i < a.regions.size(); ++i) {
      const infer::RegionEvidence& x = a.regions[i];
      const infer::RegionEvidence& y = b.regions[i];
      if (x.region != y.region || x.gps_tweets != y.gps_tweets ||
          x.night_gps_tweets != y.night_gps_tweets ||
          x.text_votes != y.text_votes) {
        return false;
      }
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseBenchArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: bench_stream [scale] [--json <path>]\n");
    return 2;
  }
  PrintHeader("bench_stream — streaming ingest throughput and swap latency",
              "StreamEngine epoch-size sweep vs the batch ground truth "
              "(DESIGN.md section 12).");

  std::printf("generating corpus (Korean preset, scale %.2f)...\n",
              args.scale);
  StudyRun run = RunKoreanStudy(args.scale);
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  serve::StudyIndex batch = serve::StudyIndex::Build(run.result, db);
  const infer::InferenceIndex batch_evidence =
      infer::InferenceIndex::Build(run.data.dataset, db);
  const int64_t tweets =
      static_cast<int64_t>(run.data.dataset.tweets().size());
  std::printf("dataset: %zu users, %lld tweets; batch index: %zu users, "
              "%zu districts\n\n",
              run.data.dataset.users().size(), static_cast<long long>(tweets),
              batch.user_count(), batch.district_count());

  const int64_t kEpochSizes[] = {256, 1024, 4096};
  std::vector<BenchJsonEntry> json_entries;
  std::vector<IngestResult> results;
  std::printf("%-12s %10s %8s %12s %12s %12s\n", "epoch_size", "tweets",
              "seals", "tweets/s", "swap_p50_us", "swap_p99_us");
  for (int64_t epoch_size : kEpochSizes) {
    IngestResult result = RunIngest(db, run.data.dataset, epoch_size);
    const double throughput =
        static_cast<double>(result.tweets) / result.seconds;
    std::printf("%-12lld %10lld %8lld %12.0f %12.0f %12.0f\n",
                static_cast<long long>(epoch_size),
                static_cast<long long>(result.tweets),
                static_cast<long long>(result.seals), throughput,
                result.swap_p50_us, result.swap_p99_us);
    BenchJsonEntry entry;
    entry.name = StrFormat("stream/ingest/epoch:%lld",
                           static_cast<long long>(epoch_size));
    entry.iterations = result.tweets;
    entry.ns_per_op =
        result.seconds * 1e9 / static_cast<double>(result.tweets);
    entry.extra = {{"tweets_per_second", throughput},
                   {"seals", static_cast<double>(result.seals)},
                   {"swap_p50_us", result.swap_p50_us},
                   {"swap_p99_us", result.swap_p99_us}};
    json_entries.push_back(std::move(entry));
    results.push_back(std::move(result));
  }
  std::printf("\n");

  bool ok = true;
  for (size_t i = 0; i < results.size(); ++i) {
    const IngestResult& result = results[i];
    ok &= Check(result.index != nullptr && result.tweets == tweets,
                StrFormat("epoch %lld ingested the full log",
                          static_cast<long long>(kEpochSizes[i]))
                    .c_str());
    ok &= Check(result.generation == result.epochs_sealed,
                StrFormat("epoch %lld generation tracks the seal count",
                          static_cast<long long>(kEpochSizes[i]))
                    .c_str());
    ok &= Check(result.index != nullptr &&
                    AnswersMatch(*result.index, batch),
                StrFormat("epoch %lld final generation answers "
                          "byte-identically to batch",
                          static_cast<long long>(kEpochSizes[i]))
                    .c_str());
    ok &= Check(result.infer_index != nullptr &&
                    EvidenceMatches(*result.infer_index, batch_evidence),
                StrFormat("epoch %lld final evidence equals the batch "
                          "evidence build",
                          static_cast<long long>(kEpochSizes[i]))
                    .c_str());
  }
  // Seal cost amortizes: sealing every 4096 tweets must not be slower
  // than sealing every 256 (the swap itself stays off the fold path).
  ok &= Check(results.back().seconds <= results.front().seconds * 1.5,
              "large epochs are not slower than small ones (amortized "
              "seal cost)");

  if (!args.json_path.empty()) {
    if (WriteBenchJson(args.json_path, json_entries)) {
      std::printf("\nwrote %s\n", args.json_path.c_str());
    } else {
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace stir::bench

int main(int argc, char** argv) { return stir::bench::Main(argc, argv); }
