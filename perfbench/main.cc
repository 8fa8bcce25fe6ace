// stir_perfbench: the STIR benchmark driver binary. perfbench/run.py
// builds it and runs
//
//   stir_perfbench --workload study|serve|live --seed N --seconds S
//                  --trace 0|1 [--work-dir DIR] [--source-sha X]
//
// It prints a provenance line, human-readable notes, and as its last
// line one JSON object {"correct","attempted","failed","metrics"}.
// Metric definitions are in perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/string_util.h"
#include "obs/json.h"

#ifndef STIR_BENCH_BUILD_TYPE
#define STIR_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef STIR_BENCH_CXX_FLAGS
#define STIR_BENCH_CXX_FLAGS ""
#endif

namespace stir::perfbench {

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Incorrect("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Incorrect(const std::string& why) {
  correct_ = false;
  notes_.push_back("CHECK FAILED: " + why);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::AddFailed(int64_t n, const std::string& why) {
  if (n <= 0) return;
  failed_ += n;
  notes_.push_back(StrFormat("failed operations: %lld (%s)",
                             static_cast<long long>(n), why.c_str()));
}

void Report::Print() const {
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct_);
  w.Key("attempted");
  w.Int(std::max<int64_t>(attempted_, 1));
  w.Key("failed");
  w.Int(failed_);
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, value_unit] : metrics_) {
    w.Key(name);
    w.BeginObject();
    w.Key("value");
    w.Double(value_unit.first);
    w.Key("unit");
    w.String(value_unit.second);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

int BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(hw, 1, 4));
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Timings from a sanitizer build or a build without optimisation are
/// not comparable with anything; such a binary refuses to run.
const char* UnfitBuildReason() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#elif !defined(__OPTIMIZE__)
  return "built without optimisation";
#else
  return nullptr;
#endif
}

void PrintProvenance(const Args& args, const std::string& source_sha,
                     const std::string& git_sha) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("workload");
  w.String(args.workload);
  w.Key("seed");
  w.Int(static_cast<int64_t>(args.seed));
  w.Key("seconds");
  w.Int(args.seconds);
  w.Key("trace");
  w.Bool(args.trace);
  w.Key("nproc");
  w.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Key("bench_threads");
  w.Int(BenchThreads());
  w.Key("cpu_model");
  w.String(CpuModel());
  w.Key("compiler");
  w.String("g++ " __VERSION__);
  w.Key("build_type");
  w.String(STIR_BENCH_BUILD_TYPE);
  w.Key("cxx_flags");
  w.String(STIR_BENCH_CXX_FLAGS);
  w.Key("git_sha");
  w.String(git_sha);
  w.Key("source_sha");
  w.String(source_sha);
  w.Key("date_utc");
  w.String(UtcNow());
  w.EndObject();
  std::printf("provenance: %s\n", w.str().c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: stir_perfbench --workload study|serve|live --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--source-sha X] "
               "[--git-sha X]\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  std::string source_sha = "unknown";
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--source-sha") {
      source_sha = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage();
    }
  }
  if (args.seconds < 1) return Usage();
  if (const char* reason = UnfitBuildReason()) {
    std::fprintf(stderr, "refusing to report timings: %s\n", reason);
    return 3;
  }
  // A peer closing mid-write must surface as EPIPE, not kill the run.
  std::signal(SIGPIPE, SIG_IGN);
  PrintProvenance(args, source_sha, git_sha);
  std::fflush(stdout);

  Report report;
  if (args.workload == "study") {
    RunStudy(args, &report);
  } else if (args.workload == "serve") {
    RunServe(args, &report);
  } else if (args.workload == "live") {
    RunLive(args, &report);
  } else {
    return Usage();
  }
  report.Print();
  return 0;
}

}  // namespace stir::perfbench

int main(int argc, char** argv) { return stir::perfbench::Main(argc, argv); }
