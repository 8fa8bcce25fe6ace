#ifndef STIR_PERFBENCH_BENCH_H_
#define STIR_PERFBENCH_BENCH_H_

// Shared pieces of the STIR benchmark: command-line arguments, the result
// record every workload fills, and small statistics helpers. See
// perfbench/README.md for the workloads and the meaning of each metric.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace stir::perfbench {

/// CLOCK_MONOTONIC in nanoseconds (the clock timerfd schedules against).
int64_t NowNs();
inline int64_t NowUs() { return NowNs() / 1000; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for generated corpora (inside the checkout).
  std::string work_dir = ".bench_build/work";
};

/// What one run reports. End-to-end metrics are filled on untraced runs,
/// per-layer metrics on traced runs; `notes` are printed as
/// human-readable lines before the final JSON line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records an output-check failure: the run is not correct.
  void Incorrect(const std::string& why);
  void Note(const std::string& line);

  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n, const std::string& why);

  /// Prints the notes, then the single result line:
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  void Print() const;

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Worker threads the benchmark may use: the hardware concurrency,
/// capped at 4 so that machines of different sizes run the same shape.
int BenchThreads();

/// Peak resident set of this process in MB (getrusage high-water mark).
double PeakRssMb();

/// Per-layer metric names in report order, each with its unit. Every
/// traced run reports all of them; a layer a workload does not exercise
/// reports 0 (README.md lists which layers each workload drives).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Per-layer values keyed by PerLayerMetrics() names.
using LayerValues = std::map<std::string, double>;

/// Emits every per-layer metric (0 for the ones `values` lacks).
void ReportLayers(const LayerValues& values, Report* report);

// Workload entry points (workloads.cc).
void RunStudy(const Args& args, Report* report);
void RunServe(const Args& args, Report* report);
void RunLive(const Args& args, Report* report);

}  // namespace stir::perfbench

#endif  // STIR_PERFBENCH_BENCH_H_
