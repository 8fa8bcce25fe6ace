#include "twitter/api.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"

namespace stir::twitter {

SearchApi::SearchApi(const Dataset* dataset, int64_t quota)
    : SearchApi(dataset, [quota] {
        SearchApiOptions options;
        options.quota = quota;
        return options;
      }()) {}

SearchApi::SearchApi(const Dataset* dataset, SearchApiOptions options)
    : dataset_(dataset), options_(options), retry_policy_(options.retry) {
  STIR_CHECK(dataset != nullptr);
  by_time_desc_.resize(dataset_->tweets().size());
  std::iota(by_time_desc_.begin(), by_time_desc_.end(), size_t{0});
  std::sort(by_time_desc_.begin(), by_time_desc_.end(),
            [&](size_t a, size_t b) {
              const Tweet& ta = dataset_->tweets()[a];
              const Tweet& tb = dataset_->tweets()[b];
              if (ta.time != tb.time) return ta.time > tb.time;
              return ta.id > tb.id;
            });
}

StatusOr<std::vector<const Tweet*>> SearchApi::Search(
    const SearchQuery& query) {
  common::FaultInjector* fault = options_.fault_injector;
  if (fault == nullptr || !fault->enabled()) return SearchDirect(query);

  int64_t fault_index = fault->NextIndex();
  int attempts = 0;
  for (;;) {
    common::FaultDecision decision = fault->Decide(fault_index, attempts);
    ++attempts;
    if (decision.status.ok()) return SearchDirect(query);
    if (!retry_policy_.ShouldRetry(decision.status, attempts)) {
      num_faulted_.fetch_add(1, std::memory_order_relaxed);
      return decision.status;
    }
    num_retries_.fetch_add(1, std::memory_order_relaxed);
    simulated_backoff_ms_.fetch_add(
        retry_policy_.BackoffMs(attempts, static_cast<uint64_t>(fault_index)),
        std::memory_order_relaxed);
  }
}

StatusOr<std::vector<const Tweet*>> SearchApi::SearchDirect(
    const SearchQuery& query) {
  if (options_.quota >= 0) {
    // CAS so concurrent requests can never overspend the quota.
    int64_t used = quota_used_.load(std::memory_order_relaxed);
    do {
      if (used >= options_.quota) {
        return Status::ResourceExhausted("search API quota exhausted");
      }
    } while (!quota_used_.compare_exchange_weak(used, used + 1,
                                                std::memory_order_relaxed));
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (query.max_results <= 0) {
    return Status::InvalidArgument("max_results must be positive");
  }
  std::vector<const Tweet*> results;
  for (size_t index : by_time_desc_) {
    const Tweet& tweet = dataset_->tweets()[index];
    if (tweet.time < query.since) continue;
    if (query.until > 0 && tweet.time >= query.until) continue;
    if (!query.keyword.empty() &&
        !ContainsIgnoreCase(tweet.text, query.keyword)) {
      continue;
    }
    results.push_back(&tweet);
    if (static_cast<int64_t>(results.size()) >= query.max_results) break;
  }
  return results;
}

StreamingApi::StreamingApi(const Dataset* dataset,
                           common::FaultInjector* fault_injector)
    : dataset_(dataset), fault_injector_(fault_injector) {
  STIR_CHECK(dataset != nullptr);
  by_time_asc_.resize(dataset_->tweets().size());
  std::iota(by_time_asc_.begin(), by_time_asc_.end(), size_t{0});
  std::sort(by_time_asc_.begin(), by_time_asc_.end(), [&](size_t a, size_t b) {
    const Tweet& ta = dataset_->tweets()[a];
    const Tweet& tb = dataset_->tweets()[b];
    if (ta.time != tb.time) return ta.time < tb.time;
    return ta.id < tb.id;
  });
}

bool StreamingApi::ShouldDeliver(int64_t index) const {
  if (fault_injector_ == nullptr || !fault_injector_->enabled()) return true;
  if (!fault_injector_->Decide(index).injected()) return true;
  deliveries_dropped_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

int64_t StreamingApi::Filter(const std::string& keyword,
                             const Callback& callback) const {
  int64_t delivered = 0;
  int64_t position = 0;
  for (size_t index : by_time_asc_) {
    const Tweet& tweet = dataset_->tweets()[index];
    if (!keyword.empty() && !ContainsIgnoreCase(tweet.text, keyword)) {
      continue;
    }
    if (!ShouldDeliver(position++)) continue;
    callback(tweet);
    ++delivered;
  }
  return delivered;
}

int64_t StreamingApi::Replay(const IndexedCallback& callback) const {
  int64_t delivered = 0;
  int64_t position = 0;
  for (size_t index : by_time_asc_) {
    if (!ShouldDeliver(position++)) continue;
    callback(index, dataset_->tweets()[index]);
    ++delivered;
  }
  return delivered;
}

int64_t StreamingApi::Sample(double rate, Rng& rng,
                             const Callback& callback) const {
  int64_t delivered = 0;
  int64_t position = 0;
  for (size_t index : by_time_asc_) {
    if (!rng.Bernoulli(rate)) continue;
    if (!ShouldDeliver(position++)) continue;
    callback(dataset_->tweets()[index]);
    ++delivered;
  }
  return delivered;
}

}  // namespace stir::twitter
