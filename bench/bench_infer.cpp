// bench_infer: accuracy + latency gate for the stir::infer subsystem
// (DESIGN.md §16).
//
// Generates a Korean-preset corpus (default scale 0.2, about 10.4k
// users) with the diurnal signal enabled (night_home_bias 0.65 — night-
// window tweets are posted from home with that probability), infers
// every user's home district from tweet evidence alone, and scores the
// three strategies against the generator's ground truth. The gates:
//
//   - the diurnal strategy reaches >= 0.80 accuracy@district on the
//     GPS-rich slice (users with >= 5 located GPS tweets), and
//   - it beats plain spatial clustering on the same seed (strictly more
//     correct GPS-rich predictions), because up-weighting night tweets
//     recovers homes that daytime activity (commuting) drowns out;
//
// then drives `infer_user` through the in-process serve front end with
// pipelined clients and gates p99 latency. --json writes the combined
// accuracy + latency snapshot (checked in as BENCH_infer.json).
//
// Usage: bench_infer [scale] [--json <path>] [--clients N] [--requests N]
//                    [--night-home-bias P]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "infer/eval.h"
#include "infer/home_inferrer.h"
#include "infer/inference_index.h"
#include "io/truth_sidecar.h"
#include "serve/server.h"
#include "serve/study_index.h"

namespace stir::bench {
namespace {

struct Args {
  double scale = 0.2;  ///< ~10.4k users: the accuracy-gate corpus size.
  std::string json_path;
  int clients = 4;
  int requests_per_client = 4000;
  double night_home_bias = 0.65;
};

bool ParseBenchArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--json") {
      const char* value = next();
      if (value == nullptr) return false;
      args->json_path = value;
    } else if (arg == "--clients") {
      const char* value = next();
      if (value == nullptr) return false;
      args->clients = std::max(1, std::atoi(value));
    } else if (arg == "--requests") {
      const char* value = next();
      if (value == nullptr) return false;
      args->requests_per_client = std::max(1, std::atoi(value));
    } else if (arg == "--night-home-bias") {
      const char* value = next();
      if (value == nullptr) return false;
      args->night_home_bias = std::atof(value);
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

/// The in-memory equivalent of the ground-truth sidecar: one name-keyed
/// record per generated user, resolved through the generator's own
/// gazetteer (exactly what GenerateToCorpus streams into the sidecar).
std::vector<io::TruthRecord> TruthFromGenerated(
    const twitter::GroundTruth& truth, const geo::AdminDb& db) {
  std::vector<io::TruthRecord> records;
  records.reserve(truth.mobility.size());
  for (const auto& [user, profile] : truth.mobility) {
    io::TruthRecord record;
    record.user = user;
    record.archetype = twitter::ArchetypeToString(profile.archetype);
    const geo::Region& home = db.region(profile.home);
    record.home_state = home.state;
    record.home_county = home.county;
    const geo::Region& claimed = db.region(profile.claimed);
    record.claimed_state = claimed.state;
    record.claimed_county = claimed.county;
    records.push_back(std::move(record));
  }
  return records;
}

/// A deterministic per-client infer_user script over users that actually
/// have evidence, mixing the default (diurnal) strategy with explicit
/// spatial/text requests the way a consumer sweeping strategies would.
std::vector<std::string> BuildInferScript(const infer::InferenceIndex& index,
                                          int client, int count) {
  std::vector<std::string> script;
  script.reserve(static_cast<size_t>(count));
  Rng rng(2000 + client);
  const auto& users = index.users();
  const int64_t id_base = static_cast<int64_t>(client) * 1'000'000;
  for (int i = 0; i < count; ++i) {
    const infer::UserEvidenceView evidence = users[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(users.size()) - 1))];
    const int64_t id = id_base + i;
    const int64_t roll = rng.UniformInt(0, 99);
    if (roll < 70) {
      script.push_back(StrFormat(
          "{\"v\":1,\"id\":%lld,\"method\":\"infer_user\","
          "\"params\":{\"user\":%lld}}",
          static_cast<long long>(id),
          static_cast<long long>(evidence.user)));
    } else {
      const char* strategy = roll < 90 ? "spatial" : "text";
      script.push_back(StrFormat(
          "{\"v\":1,\"id\":%lld,\"method\":\"infer_user\","
          "\"params\":{\"user\":%lld,\"strategy\":\"%s\"}}",
          static_cast<long long>(id),
          static_cast<long long>(evidence.user), strategy));
    }
  }
  return script;
}

struct InferLoadResult {
  double seconds = 0.0;
  int64_t requests = 0;
  int64_t decided = 0;    ///< "ok":true responses with a district.
  int64_t abstained = 0;  ///< Typed `low_confidence` envelopes.
  int64_t errors = 0;     ///< Anything else (should be zero).
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Pipelined client threads against the in-process server; both decided
/// answers and low_confidence abstentions are successful outcomes and
/// both enter the latency sample (a client pays for the abstention too).
InferLoadResult RunInferLoad(
    serve::Server& server,
    const std::vector<std::vector<std::string>>& scripts, size_t window) {
  using Clock = std::chrono::steady_clock;
  struct Inflight {
    std::future<std::string> future;
    Clock::time_point submitted;
  };
  const size_t clients = scripts.size();
  std::vector<std::vector<int64_t>> latencies(clients);
  std::vector<int64_t> decided(clients, 0);
  std::vector<int64_t> abstained(clients, 0);
  std::vector<int64_t> errors(clients, 0);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      auto& mine = latencies[c];
      mine.reserve(scripts[c].size());
      std::deque<Inflight> inflight;
      auto drain_one = [&] {
        std::string response = inflight.front().future.get();
        mine.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - inflight.front().submitted)
                           .count());
        if (response.find("\"ok\":true") != std::string::npos) {
          ++decided[c];
        } else if (response.find("\"code\":\"low_confidence\"") !=
                   std::string::npos) {
          ++abstained[c];
        } else {
          ++errors[c];
        }
        inflight.pop_front();
      };
      for (const std::string& line : scripts[c]) {
        if (inflight.size() >= window) drain_one();
        inflight.push_back({server.SubmitLine(line), Clock::now()});
      }
      while (!inflight.empty()) drain_one();
    });
  }
  while (ready.load() < static_cast<int>(clients)) {
    std::this_thread::yield();
  }
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const auto stop = Clock::now();

  InferLoadResult result;
  result.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(stop - start)
          .count();
  std::vector<int64_t> all;
  for (size_t c = 0; c < clients; ++c) {
    result.requests += static_cast<int64_t>(scripts[c].size());
    result.decided += decided[c];
    result.abstained += abstained[c];
    result.errors += errors[c];
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
  }
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    result.p50_us = static_cast<double>(all[all.size() / 2]);
    result.p99_us = static_cast<double>(all[(all.size() * 99) / 100]);
  }
  return result;
}

BenchJsonEntry AccuracyEntry(const infer::StrategyEval& eval,
                             double seconds) {
  BenchJsonEntry entry;
  entry.name = StrFormat("infer/accuracy/strategy:%s",
                         infer::StrategyToString(eval.strategy));
  entry.iterations = eval.users;
  entry.ns_per_op =
      eval.users > 0 ? seconds * 1e9 / static_cast<double>(eval.users) : 0.0;
  entry.extra = {{"decided", static_cast<double>(eval.decided)},
                 {"abstained", static_cast<double>(eval.abstained)},
                 {"gps_rich_users", static_cast<double>(eval.gps_rich_users)}};
  entry.accuracy = {
      {"accuracy_district", eval.AccuracyDistrict()},
      {"accuracy_province", eval.AccuracyProvince()},
      {"gps_rich_accuracy_district", eval.GpsRichAccuracyDistrict()},
      {"gps_rich_accuracy_province", eval.GpsRichAccuracyProvince()},
      {"abstain_rate", eval.AbstainRate()}};
  return entry;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseBenchArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_infer [scale] [--json <path>] [--clients N] "
                 "[--requests N] [--night-home-bias P]\n");
    return 2;
  }
  PrintHeader("bench_infer — home-location inference accuracy + latency",
              "Tweet-evidence-only home prediction scored against "
              "generator ground truth, plus infer_user serving latency "
              "(DESIGN.md section 16).");

  std::printf("generating corpus (Korean preset, scale %.2f, "
              "night_home_bias %.2f)...\n",
              args.scale, args.night_home_bias);
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGeneratorOptions options =
      twitter::DatasetGenerator::KoreanConfig(args.scale);
  options.mobility.night_home_bias = args.night_home_bias;
  twitter::DatasetGenerator generator(&db, options);
  twitter::GeneratedData data = generator.Generate();
  const std::vector<io::TruthRecord> truth =
      TruthFromGenerated(data.truth, db);

  const auto build_start = std::chrono::steady_clock::now();
  infer::InferenceIndex infer_index =
      infer::InferenceIndex::Build(data.dataset, db);
  const double build_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - build_start)
          .count();
  std::printf("dataset users=%zu  evidence index: %zu users, %lld bytes, "
              "built in %.3fs\n\n",
              data.dataset.users().size(), infer_index.user_count(),
              static_cast<long long>(infer_index.MemoryBytes()),
              build_seconds);

  // --- Accuracy gates ----------------------------------------------------
  infer::InferParams params;
  std::vector<infer::StrategyEval> evals;
  std::vector<BenchJsonEntry> json_entries;
  for (int s = 0; s < infer::kNumStrategies; ++s) {
    const auto eval_start = std::chrono::steady_clock::now();
    evals.push_back(infer::EvaluateStrategy(
        infer_index, truth, static_cast<infer::Strategy>(s), params));
    const double eval_seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - eval_start)
            .count();
    json_entries.push_back(AccuracyEntry(evals.back(), eval_seconds));
  }
  std::printf("%s\n", infer::RenderEvalReport(evals).c_str());

  const infer::StrategyEval& spatial = evals[0];
  const infer::StrategyEval& diurnal = evals[1];
  const infer::StrategyEval& text = evals[2];
  bool ok = true;
  ok &= Check(diurnal.gps_rich_users >= 100 || args.scale < 0.2,
              "GPS-rich slice is large enough to gate on (>= 100 users)");
  ok &= Check(diurnal.GpsRichAccuracyDistrict() >= 0.80,
              "diurnal strategy reaches 0.80 accuracy@district on the "
              "GPS-rich slice");
  ok &= Check(diurnal.gps_rich_correct_district >
                  spatial.gps_rich_correct_district,
              "diurnal beats plain spatial clustering on the same seed "
              "(more correct GPS-rich homes)");
  ok &= Check(diurnal.AccuracyProvince() >= diurnal.AccuracyDistrict(),
              "province accuracy dominates district accuracy (sanity)");
  ok &= Check(text.decided > 0 && text.AccuracyProvince() >= 0.5,
              "the text fallback decides some users at usable province "
              "accuracy");

  // --- infer_user serving latency ----------------------------------------
  std::printf("\ninfer_user serving latency (%d clients, %d requests "
              "each):\n",
              args.clients, args.requests_per_client);
  core::CorrelationStudy study(&db);
  core::StudyResult study_result = study.Run(data.dataset);
  serve::StudyIndex study_index =
      serve::StudyIndex::Build(study_result, db);
  serve::ServeOptions serve_options;
  serve_options.workers = 4;
  serve_options.max_batch_size = 16;
  serve_options.batch_linger_us = 200;
  serve_options.queue_capacity = 4096;
  serve_options.infer_index = &infer_index;
  serve::Server server(&study_index, serve_options);

  std::vector<std::vector<std::string>> scripts;
  for (int c = 0; c < args.clients; ++c) {
    scripts.push_back(
        BuildInferScript(infer_index, c, args.requests_per_client));
  }
  InferLoadResult load = RunInferLoad(server, scripts, /*window=*/64);
  server.Drain();
  std::printf("  requests=%lld decided=%lld abstained=%lld req/s=%.0f "
              "p50_us=%.0f p99_us=%.0f\n",
              static_cast<long long>(load.requests),
              static_cast<long long>(load.decided),
              static_cast<long long>(load.abstained),
              static_cast<double>(load.requests) / load.seconds, load.p50_us,
              load.p99_us);
  ok &= Check(load.errors == 0,
              "every infer_user response is decided or the typed "
              "low_confidence envelope");
  ok &= Check(load.decided > 0 && load.abstained > 0,
              "the load exercises both decided and abstained outcomes");
  // The latency gate: an inference lookup is an O(evidence) argmax over
  // a pinned immutable index — p99 must stay in interactive territory
  // even with pipelined load and batching linger.
  ok &= Check(load.p99_us <= 10'000.0,
              "infer_user p99 stays at or under 10 ms under load");

  BenchJsonEntry latency_entry;
  latency_entry.name = "infer/latency/infer_user";
  latency_entry.iterations = load.requests;
  latency_entry.ns_per_op =
      load.seconds * 1e9 / static_cast<double>(load.requests);
  latency_entry.extra = {
      {"requests_per_second",
       static_cast<double>(load.requests) / load.seconds},
      {"p50_us", load.p50_us},
      {"p99_us", load.p99_us},
      {"decided", static_cast<double>(load.decided)},
      {"abstained", static_cast<double>(load.abstained)}};
  latency_entry.accuracy = {
      {"gps_rich_accuracy_district", diurnal.GpsRichAccuracyDistrict()},
      {"abstain_rate", diurnal.AbstainRate()}};
  json_entries.push_back(std::move(latency_entry));

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
