#ifndef STIR_COMMON_THREAD_POOL_H_
#define STIR_COMMON_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"

namespace stir::common {

/// Fixed-size worker pool for the parallel study pipeline. Tasks are
/// FIFO-scheduled onto `num_threads` workers; with zero threads the pool
/// degenerates to inline execution on the submitting thread, so callers
/// can treat "no parallelism" as just another pool size. Destruction
/// drains the queue (every submitted task runs) before joining.
///
/// With a `metrics` registry the pool reports its runtime behaviour
/// (DESIGN.md §8): counters `pool.tasks_submitted` / `pool.tasks_completed`
/// and per-worker `pool.worker.<i>.tasks` / `pool.worker.<i>.busy_us`,
/// gauges `pool.queue_depth` (live) and `pool.queue_depth_max`
/// (high-water), histograms `pool.queue_wait_us` and `pool.task_run_us`.
/// A null registry keeps every code path timing-free.
class ThreadPool {
 public:
  /// `num_threads` <= 0 creates an inline pool (no workers). `metrics`
  /// (optional, not owned) must outlive the pool.
  explicit ThreadPool(int num_threads,
                      obs::MetricsRegistry* metrics = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for an inline pool).
  int size() const { return static_cast<int>(workers_.size()); }

  /// Schedules `fn` and returns a future for its result. Exceptions thrown
  /// by `fn` surface from future.get(). The task is counted complete
  /// before its future becomes ready, so a caller that has waited on its
  /// futures finds every one of them in the registry.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R(const Done&)>>(
        [fn = std::forward<F>(fn)](const Done& done) mutable -> R {
          // `done` runs as `fn` returns or throws, before the packaged
          // task stores the outcome and readies the future.
          struct OnExit {
            const Done& done;
            ~OnExit() { done(); }
          } on_exit{done};
          return fn();
        });
    std::future<R> future = task->get_future();
    Schedule([task](const Done& done) { (*task)(done); });
    return future;
  }

 private:
  /// Records one task's completion: its run time and counters.
  using Done = std::function<void()>;

  struct QueuedTask {
    std::function<void(const Done&)> fn;
    /// Enqueue time; only sampled when metrics are attached.
    std::chrono::steady_clock::time_point enqueued;
  };

  void Schedule(std::function<void(const Done&)> fn);
  void WorkerLoop(size_t worker_index);
  /// Runs one task, charging run time / completion to `worker_index`
  /// (worker slots are resolved in the constructor; the inline path uses
  /// the shared counters only).
  void RunTask(QueuedTask task, size_t worker_index);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedTask> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  // Observability (all null when no registry is attached).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* tasks_submitted_ = nullptr;
  obs::Counter* tasks_completed_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* queue_depth_max_ = nullptr;
  obs::Histogram* queue_wait_us_ = nullptr;
  obs::Histogram* task_run_us_ = nullptr;
  std::vector<obs::Counter*> worker_tasks_;
  std::vector<obs::Counter*> worker_busy_us_;
};

/// Worker count of a default pool: std::thread::hardware_concurrency(),
/// at least 1.
int HardwareThreads();

/// Number of contiguous shards ParallelFor/ParallelForShards split `n`
/// items into for `pool`: min(n, worker count), at least 1. Shard
/// boundaries depend only on (n, shard count), never on scheduling, which
/// is what makes ordered merges of per-shard results deterministic.
size_t NumShards(const ThreadPool* pool, size_t n);

/// Runs `fn(shard, begin, end)` for each of NumShards(pool, n) contiguous,
/// disjoint index ranges covering [0, n), in parallel on `pool` (inline
/// when `pool` is null or has no workers). Blocks until all shards finish;
/// the first exception thrown by any shard is rethrown after the barrier.
void ParallelForShards(
    ThreadPool* pool, size_t n,
    const std::function<void(size_t shard, size_t begin, size_t end)>& fn);

/// Runs `fn(i)` for every i in [0, n), chunked per ParallelForShards.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t i)>& fn);

}  // namespace stir::common

#endif  // STIR_COMMON_THREAD_POOL_H_
