#ifndef STIR_BENCH_BENCH_UTIL_H_
#define STIR_BENCH_BENCH_UTIL_H_

// Shared helpers for the reproduction benches. Each bench binary
// regenerates one table or figure of the paper and prints paper-reported
// values (where legible in the source text) next to measured ones, with a
// PASS/CHECK verdict on the qualitative shape.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/study.h"
#include "geo/admin_db.h"
#include "obs/json.h"
#include "twitter/generator.h"

namespace stir::bench {

/// High-water-mark resident set of this process in bytes (ru_maxrss is
/// kilobytes on Linux). The out-of-core acceptance gate compares this
/// against the on-disk corpus size.
inline int64_t CurrentPeakRssBytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

/// Scale for dataset generation: 1.0 = the paper's 52,200-user crawl.
/// Benches default to full scale (about a second of generation) and
/// accept an override as argv[1].
inline double ScaleFromArgs(int argc, char** argv, double fallback = 1.0) {
  if (argc > 1) {
    double scale = std::atof(argv[1]);
    if (scale > 0.0) return scale;
  }
  return fallback;
}

struct StudyRun {
  twitter::GeneratedData data;
  core::StudyResult result;
};

/// Generates the Korean-preset corpus and runs the full study.
inline StudyRun RunKoreanStudy(double scale) {
  const geo::AdminDb& db = geo::AdminDb::KoreanDistricts();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::KoreanConfig(scale));
  StudyRun run{generator.Generate(), {}};
  core::CorrelationStudy study(&db);
  run.result = study.Run(run.data.dataset);
  return run;
}

/// Generates the Lady-Gaga-preset corpus (world gazetteer) and runs the
/// study.
inline StudyRun RunLadyGagaStudy(double scale) {
  const geo::AdminDb& db = geo::AdminDb::WorldCities();
  twitter::DatasetGenerator generator(
      &db, twitter::DatasetGenerator::LadyGagaConfig(scale));
  StudyRun run{generator.Generate(), {}};
  core::CorrelationStudy study(&db);
  run.result = study.Run(run.data.dataset);
  return run;
}

/// One PASS/CHECK line for a shape assertion.
inline bool Check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "CHECK", what);
  return ok;
}

/// One measured configuration for the machine-readable `--json` output
/// shared by the load benches: name, iteration count, and nanoseconds per
/// operation, plus free-form numeric extras (latency quantiles and the
/// like).
struct BenchJsonEntry {
  std::string name;
  int64_t iterations = 0;
  double ns_per_op = 0.0;
  std::vector<std::pair<std::string, double>> extra;
  /// Accuracy-style ratios (written as a nested `"accuracy"` object with
  /// 4-decimal precision, so quality gates live in the same snapshot as
  /// the latency numbers — BENCH_infer.json pairs p99 with
  /// accuracy@district this way).
  std::vector<std::pair<std::string, double>> accuracy;
};

#ifndef STIR_BENCH_BUILD_TYPE
#define STIR_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef STIR_BENCH_CXX_FLAGS
#define STIR_BENCH_CXX_FLAGS ""
#endif

/// The first "model name" line of /proc/cpuinfo.
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t value = line.find_first_not_of(" \t:", line.find(':'));
    return value == std::string::npos ? "" : line.substr(value);
  }
  return "unknown";
}

/// The commit of the checkout the bench runs in (with "-dirty" when the
/// tree has uncommitted changes), or "none" outside a checkout.
inline std::string GitSha() {
  std::FILE* pipe =
      ::popen("git describe --always --dirty --abbrev=40 2>/dev/null", "r");
  if (pipe == nullptr) return "none";
  char buf[128] = {};
  std::string sha = std::fgets(buf, sizeof(buf), pipe) ? buf : "";
  ::pclose(pipe);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == ' ')) {
    sha.pop_back();
  }
  return sha.empty() ? "none" : sha;
}

/// Writes the `"host"` object: what machine, compiler, build and commit
/// produced the numbers beside it.
inline void WriteHost(obs::JsonWriter& w) {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char date[32];
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &tm);
  w.Key("host");
  w.BeginObject();
  w.Key("nproc");
  w.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Key("cpu_model");
  w.String(CpuModel());
  w.Key("compiler");
  w.String("g++ " __VERSION__);
  w.Key("build_type");
  w.String(STIR_BENCH_BUILD_TYPE);
  w.Key("cxx_flags");
  w.String(STIR_BENCH_CXX_FLAGS);
  w.Key("git_sha");
  w.String(GitSha());
  w.Key("date_utc");
  w.String(date);
  w.EndObject();
}

/// Writes `{"host":{...},"benchmarks":[{"name":...,"iterations":...,
/// "ns_per_op":...,"accuracy":{...}?}],
/// "process":{"peak_rss_bytes":...,"mapped_bytes_peak":...}}` to `path`.
/// `mapped_bytes_peak` is the caller's high-water mark of mmapped corpus
/// bytes (CorpusView::bytes_mapped; 0 for benches that never map one).
/// Returns false (with a message on stderr) when the file cannot be
/// written.
inline bool WriteBenchJson(const std::string& path,
                           const std::vector<BenchJsonEntry>& entries,
                           int64_t mapped_bytes_peak = 0) {
  obs::JsonWriter w;
  w.BeginObject();
  WriteHost(w);
  w.Key("benchmarks");
  w.BeginArray();
  for (const BenchJsonEntry& entry : entries) {
    w.BeginObject();
    w.Key("name");
    w.String(entry.name);
    w.Key("iterations");
    w.Int(entry.iterations);
    w.Key("ns_per_op");
    w.FixedDouble(entry.ns_per_op, 1);
    for (const auto& [key, value] : entry.extra) {
      w.Key(key);
      w.FixedDouble(value, 3);
    }
    if (!entry.accuracy.empty()) {
      w.Key("accuracy");
      w.BeginObject();
      for (const auto& [key, value] : entry.accuracy) {
        w.Key(key);
        w.FixedDouble(value, 4);
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("process");
  w.BeginObject();
  w.Key("peak_rss_bytes");
  w.Int(CurrentPeakRssBytes());
  w.Key("mapped_bytes_peak");
  w.Int(mapped_bytes_peak);
  w.EndObject();
  w.EndObject();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

inline void PrintHeader(const char* experiment, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", experiment, description);
  std::printf("==============================================================\n");
}

}  // namespace stir::bench

#endif  // STIR_BENCH_BENCH_UTIL_H_
