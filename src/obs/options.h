#ifndef STIR_OBS_OPTIONS_H_
#define STIR_OBS_OPTIONS_H_

#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace stir::obs {

/// Observability knobs carried by stir::StudyConfig (`config.obs`). The
/// default — everything off, pointers null — keeps every instrumented
/// component on its pre-observability code path, which is what the
/// byte-identical-output guarantee rests on.
struct ObsOptions {
  /// Collect pipeline metrics into a per-run registry snapshotted into
  /// StudyResult::metrics (CLI: set by --metrics-out).
  bool enable_metrics = false;
  /// Record stage spans into a per-run tracer snapshotted into
  /// StudyResult::trace (CLI: set by --trace-out).
  bool enable_trace = false;
  /// Time spans with a real steady_clock instead of the deterministic
  /// virtual clock — wall-clock benchmarking at the cost of run-to-run
  /// reproducibility of the timestamps.
  bool real_time_trace = false;
  /// Emit one span per reverse-geocode service lookup (cache hits and
  /// misses alike). Stage-level spans are always emitted; per-lookup spans
  /// are the fine-grained tier and dominate span volume on large corpora.
  bool trace_geocode_calls = true;
  /// Caller-owned sinks. When set, they are used instead of (and imply)
  /// the per-run instances above; they must outlive the study run.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;

  bool metrics_enabled() const { return enable_metrics || metrics != nullptr; }
  bool trace_enabled() const { return enable_trace || tracer != nullptr; }
};

/// The one place enable flags become sinks. Fills `options->metrics` and
/// `options->tracer`: a caller-owned instance wins; an enable flag with
/// no instance gets one owned here (the tracer on a SteadyClock under
/// `real_time_trace`); otherwise the pointer stays null. The filled
/// pointers are valid while this object lives.
class RunSinks {
 public:
  explicit RunSinks(ObsOptions* options) {
    if (options->metrics == nullptr && options->enable_metrics) {
      metrics_ = std::make_unique<MetricsRegistry>();
      options->metrics = metrics_.get();
    }
    if (options->tracer == nullptr && options->enable_trace) {
      Tracer::Options tracer_options;
      if (options->real_time_trace) {
        clock_ = std::make_unique<SteadyClock>();
        tracer_options.clock = clock_.get();
      }
      tracer_ = std::make_unique<Tracer>(tracer_options);
      options->tracer = tracer_.get();
    }
  }
  RunSinks(const RunSinks&) = delete;
  RunSinks& operator=(const RunSinks&) = delete;

 private:
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<SteadyClock> clock_;  ///< Outlives tracer_.
  std::unique_ptr<Tracer> tracer_;
};

}  // namespace stir::obs

#endif  // STIR_OBS_OPTIONS_H_
