// Resilience overhead: what the fault-injection layer costs when idle,
// what retries + degraded mode cost (and recover) when the simulated
// geocoding service misbehaves, and what the storage fault layer
// (io::FaultFs, DESIGN.md §15) costs when the journaled study absorbs
// short writes and EINTR on every durable append. Not a paper figure —
// this prices the failure model DESIGN.md §7/§15 describe.
//
// Usage: bench_resilience [scale] [--json <path>]
//
// --json writes the machine-readable shape shared with bench_perf /
// bench_stream, one entry per configuration, with the fault-accounting
// counters (injected / recovered / surfaced / quarantined) as extras.

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string_view>

#include "bench_util.h"
#include "io/fault_fs.h"

namespace stir::bench {
namespace {

struct Args {
  double scale = 0.2;
  std::string json_path;
};

bool ParseBenchArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) return false;
      args->json_path = argv[++i];
    } else {
      double scale = std::atof(argv[i]);
      if (scale <= 0.0) {
        std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
        return false;
      }
      args->scale = scale;
    }
  }
  return true;
}

double MeasureConfigMs(const twitter::Dataset& dataset,
                       const geo::AdminDb& db, const StudyConfig& config,
                       core::StudyResult* result) {
  core::CorrelationStudy study(&db, config);
  auto start = std::chrono::steady_clock::now();
  *result = study.Run(dataset);
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

BenchJsonEntry Entry(const std::string& name, double ms,
                     const core::StudyResult& result) {
  BenchJsonEntry entry;
  entry.name = name;
  entry.iterations = 1;
  entry.ns_per_op = ms * 1e6;
  entry.extra.emplace_back("final_users",
                           static_cast<double>(result.final_users));
  entry.extra.emplace_back(
      "geocode_failures",
      static_cast<double>(result.funnel.geocode_failures));
  return entry;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseBenchArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_resilience [scale] [--json <path>]\n");
    return 1;
  }
  PrintHeader("Resilience — fault injection, retry, degraded mode",
              "study cost and recovery under injected service faults");

  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(args.scale));
  twitter::GeneratedData data = generator.Generate();

  std::vector<BenchJsonEntry> json_entries;

  StudyConfig base;
  core::StudyResult clean;
  double clean_ms = MeasureConfigMs(data.dataset, db, base, &clean);
  json_entries.push_back(Entry("resilience/no_faults", clean_ms, clean));

  std::printf("%-26s %9s %9s %9s %9s %9s %8s\n", "configuration", "ms",
              "faulted", "retried", "degraded", "failures", "users");
  std::printf("%-26s %9.1f %9s %9s %9s %9lld %8lld\n", "no faults", clean_ms,
              "-", "-", "-",
              static_cast<long long>(clean.funnel.geocode_failures),
              static_cast<long long>(clean.final_users));

  core::StudyResult faulty;
  double faulty_ms = 0.0;
  for (double rate : {0.05, 0.20}) {
    StudyConfig options;
    options.fault.error_rate = rate;
    options.fault.seed = 20120401;
    options.retry.max_attempts = 3;
    faulty_ms = MeasureConfigMs(data.dataset, db, options, &faulty);
    std::printf("fault-rate %.2f, retry 3    %9.1f %9lld %9lld %9lld %9lld "
                "%8lld\n",
                rate, faulty_ms,
                static_cast<long long>(faulty.funnel.geocode_faulted),
                static_cast<long long>(faulty.funnel.geocode_retried),
                static_cast<long long>(faulty.funnel.geocode_degraded),
                static_cast<long long>(faulty.funnel.geocode_failures),
                static_cast<long long>(faulty.final_users));
    char name[64];
    std::snprintf(name, sizeof(name), "resilience/fault_rate_%.2f", rate);
    BenchJsonEntry entry = Entry(name, faulty_ms, faulty);
    entry.extra.emplace_back(
        "geocode_faulted",
        static_cast<double>(faulty.funnel.geocode_faulted));
    entry.extra.emplace_back(
        "geocode_retried",
        static_cast<double>(faulty.funnel.geocode_retried));
    json_entries.push_back(std::move(entry));
  }

  double overhead = clean_ms > 0.0 ? (faulty_ms / clean_ms - 1.0) * 100.0
                                   : 0.0;
  std::printf("\nretry/fault overhead at rate 0.20: %+.1f%% wall time, "
              "%lld ms simulated backoff\n\n",
              overhead, static_cast<long long>(faulty.funnel.backoff_ms));

  // --- Durability overhead: geocode journal + checkpoints on vs off. ---
  // Per process, so concurrent runs (two build trees under ctest) cannot
  // share a journal.
  std::filesystem::path ckpt_dir =
      std::filesystem::temp_directory_path() /
      ("stir_bench_resilience_ckpt_" + std::to_string(::getpid()));
  std::filesystem::remove_all(ckpt_dir);

  StudyConfig durable;
  durable.durability.checkpoint_dir = ckpt_dir.string();
  // Per-record fsync on the journal is the paper-faithful write-ahead
  // setting; the bench prices it as the worst case.
  durable.durability.fsync = true;
  core::StudyResult journaled;
  double journaled_ms = MeasureConfigMs(data.dataset, db, durable, &journaled);
  json_entries.push_back(
      Entry("resilience/durability_on", journaled_ms, journaled));

  StudyConfig resumed_config = durable;
  resumed_config.durability.resume = true;
  core::StudyResult resumed;
  double resumed_ms =
      MeasureConfigMs(data.dataset, db, resumed_config, &resumed);

  double durability_overhead =
      clean_ms > 0.0 ? (journaled_ms / clean_ms - 1.0) * 100.0 : 0.0;
  std::printf("durability (journal + checkpoints, fsync each append):\n");
  std::printf("  off %9.1f ms   on %9.1f ms  (%+.1f%%)   resume %9.1f ms\n\n",
              clean_ms, journaled_ms, durability_overhead, resumed_ms);

  // --- Storage faults: the journaled run under recovered-class io
  // faults. Short writes and EINTR on every durable append are absorbed
  // by the write-all retry loops; the run must finish with the same
  // sample and a balanced fault ledger (DESIGN.md §15). ---
  std::filesystem::remove_all(ckpt_dir);
  io::FaultFsOptions fs_options;
  fs_options.seed = 20120401;
  fs_options.short_write_rate = 0.05;
  fs_options.eintr_rate = 0.05;
  io::FaultFs::Instance().Configure(fs_options);
  core::StudyResult storm;
  double storm_ms = MeasureConfigMs(data.dataset, db, durable, &storm);
  const io::FaultFsStats fs_stats = io::FaultFs::Instance().stats();
  io::FaultFs::Instance().Reset();

  double storm_overhead = journaled_ms > 0.0
                              ? (storm_ms / journaled_ms - 1.0) * 100.0
                              : 0.0;
  std::printf("storage faults (short-write 0.05, eintr 0.05, journaled):\n");
  std::printf("  %9.1f ms (%+.1f%% vs fault-free journaled)   injected %lld"
              "   recovered %lld   surfaced %lld\n\n",
              storm_ms, storm_overhead,
              static_cast<long long>(fs_stats.injected),
              static_cast<long long>(fs_stats.recovered),
              static_cast<long long>(fs_stats.surfaced));
  {
    BenchJsonEntry entry = Entry("resilience/storage_faults", storm_ms, storm);
    entry.extra.emplace_back("io_injected",
                             static_cast<double>(fs_stats.injected));
    entry.extra.emplace_back("io_recovered",
                             static_cast<double>(fs_stats.recovered));
    entry.extra.emplace_back("io_surfaced",
                             static_cast<double>(fs_stats.surfaced));
    entry.extra.emplace_back("io_quarantined",
                             static_cast<double>(fs_stats.quarantined));
    entry.extra.emplace_back("io_short_writes",
                             static_cast<double>(fs_stats.short_writes));
    entry.extra.emplace_back("io_eintr",
                             static_cast<double>(fs_stats.eintr));
    json_entries.push_back(std::move(entry));
  }

  bool ok = true;
  std::printf("shape checks:\n");
  ok &= Check(faulty.final_users > 0,
              "study completes under a 20% fault rate");
  ok &= Check(faulty.funnel.geocode_retried > 0,
              "retries engage under faults");
  ok &= Check(faulty.funnel.geocode_degraded > 0,
              "degraded text-fallback salvages some lookups");
  ok &= Check(faulty.final_users >= clean.final_users * 8 / 10,
              "retry + degradation retain >= 80% of the fault-free sample");
  ok &= Check(journaled.final_users == clean.final_users,
              "journaled run matches the plain run's final users");
  ok &= Check(resumed.final_users == clean.final_users,
              "resumed run matches the plain run's final users");
  ok &= Check(fs_stats.injected > 0, "storage faults actually fired");
  ok &= Check(fs_stats.recovered == fs_stats.injected &&
                  fs_stats.surfaced == 0,
              "every recovered-class storage fault was absorbed");
  ok &= Check(storm.final_users == clean.final_users,
              "storage-fault run matches the plain run's final users");
  std::filesystem::remove_all(ckpt_dir);

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
