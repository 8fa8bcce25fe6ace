#include "common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>

namespace stir::common {

namespace {

/// Microsecond latency buckets shared by the pool's histograms: spans
/// queue waits of a few µs through multi-second stalls.
std::vector<int64_t> LatencyBucketsUs() {
  return {10, 100, 1'000, 10'000, 100'000, 1'000'000};
}

int64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

ThreadPool::ThreadPool(int num_threads, obs::MetricsRegistry* metrics)
    : metrics_(metrics) {
  if (metrics_ != nullptr) {
    tasks_submitted_ = metrics_->GetCounter("pool.tasks_submitted");
    tasks_completed_ = metrics_->GetCounter("pool.tasks_completed");
    queue_depth_ = metrics_->GetGauge("pool.queue_depth");
    queue_depth_max_ = metrics_->GetGauge("pool.queue_depth_max");
    queue_wait_us_ =
        metrics_->GetHistogram("pool.queue_wait_us", LatencyBucketsUs());
    task_run_us_ =
        metrics_->GetHistogram("pool.task_run_us", LatencyBucketsUs());
  }
  if (num_threads <= 0) return;
  workers_.reserve(static_cast<size_t>(num_threads));
  if (metrics_ != nullptr) {
    worker_tasks_.reserve(static_cast<size_t>(num_threads));
    worker_busy_us_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      std::string prefix = "pool.worker." + std::to_string(i);
      worker_tasks_.push_back(metrics_->GetCounter(prefix + ".tasks"));
      worker_busy_us_.push_back(metrics_->GetCounter(prefix + ".busy_us"));
    }
  }
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunTask(QueuedTask task, size_t worker_index) {
  if (metrics_ == nullptr) {
    task.fn([] {});
    return;
  }
  const std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  task.fn([this, started, worker_index] {
    const int64_t run_us = ElapsedUs(started);
    obs::RecordSample(task_run_us_, run_us);
    obs::IncrementCounter(tasks_completed_);
    if (worker_index < worker_tasks_.size()) {
      obs::IncrementCounter(worker_tasks_[worker_index]);
      obs::IncrementCounter(worker_busy_us_[worker_index], run_us);
    }
  });
}

void ThreadPool::Schedule(std::function<void(const Done&)> fn) {
  obs::IncrementCounter(tasks_submitted_);
  if (workers_.empty()) {
    // Inline pool: the packaged_task captures any exception.
    RunTask(QueuedTask{std::move(fn), {}}, static_cast<size_t>(-1));
    return;
  }
  QueuedTask task{std::move(fn), {}};
  if (metrics_ != nullptr) task.enqueued = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    if (queue_depth_ != nullptr) {
      queue_depth_->Add(1);
      queue_depth_max_->SetMax(static_cast<int64_t>(queue_.size()));
    }
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
      if (queue_depth_ != nullptr) queue_depth_->Add(-1);
    }
    if (metrics_ != nullptr) {
      obs::RecordSample(queue_wait_us_, ElapsedUs(task.enqueued));
    }
    RunTask(std::move(task), worker_index);
  }
}

int HardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

size_t NumShards(const ThreadPool* pool, size_t n) {
  size_t workers = pool != nullptr && pool->size() > 0
                       ? static_cast<size_t>(pool->size())
                       : 1;
  return std::max<size_t>(1, std::min(workers, n));
}

void ParallelForShards(
    ThreadPool* pool, size_t n,
    const std::function<void(size_t shard, size_t begin, size_t end)>& fn) {
  if (n == 0) return;
  size_t shards = NumShards(pool, n);
  // Stable boundaries: the first (n % shards) shards take one extra item.
  size_t base = n / shards;
  size_t extra = n % shards;
  if (shards == 1) {
    fn(0, 0, n);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(shards);
  size_t begin = 0;
  for (size_t shard = 0; shard < shards; ++shard) {
    size_t end = begin + base + (shard < extra ? 1 : 0);
    futures.push_back(
        pool->Submit([&fn, shard, begin, end] { fn(shard, begin, end); }));
    begin = end;
  }
  // Wait for every shard before rethrowing so no shard outlives the call.
  std::exception_ptr first_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t i)>& fn) {
  ParallelForShards(pool, n,
                    [&fn](size_t /*shard*/, size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) fn(i);
                    });
}

}  // namespace stir::common
