#include "twitter/crawler.h"

#include <deque>
#include <span>
#include <vector>

#include "common/logging.h"

namespace stir::twitter {

Crawler::Crawler(const SocialGraph* graph, CrawlerOptions options)
    : graph_(graph), options_(options) {
  STIR_CHECK(graph != nullptr);
  STIR_CHECK_GT(options_.page_size, 0);
  STIR_CHECK_GT(options_.requests_per_window, 0);
  STIR_CHECK_GT(options_.window_seconds, 0);
}

StatusOr<CrawlResult> Crawler::Crawl(UserId seed) const {
  if (seed < 0 || seed >= graph_->num_users()) {
    return Status::InvalidArgument("crawl seed out of range");
  }
  CrawlResult result;
  std::vector<bool> seen(static_cast<size_t>(graph_->num_users()), false);
  std::deque<UserId> frontier;
  SimClock clock;
  int64_t window_requests = 0;

  auto issue_request = [&]() {
    if (window_requests == options_.requests_per_window) {
      clock.Advance(options_.window_seconds);  // sleep out the window
      window_requests = 0;
    }
    ++window_requests;
    ++result.requests_issued;
    clock.Advance(1);  // nominal request latency
  };

  auto discover = [&](UserId user) {
    if (seen[static_cast<size_t>(user)]) return;
    seen[static_cast<size_t>(user)] = true;
    result.users.push_back(user);
    frontier.push_back(user);
  };

  discover(seed);
  bool target_reached = options_.target_users > 0 &&
                        static_cast<int64_t>(result.users.size()) >=
                            options_.target_users;
  while (!frontier.empty() && !target_reached) {
    UserId current = frontier.front();
    frontier.pop_front();
    const std::span<const uint32_t> followers = graph_->Followers(current);
    // Paged listing: one request per page_size followers (minimum one to
    // learn the list is empty).
    int64_t pages =
        std::max<int64_t>(1, (static_cast<int64_t>(followers.size()) +
                              options_.page_size - 1) /
                                 options_.page_size);
    for (int64_t page = 0; page < pages && !target_reached; ++page) {
      issue_request();
      size_t begin = static_cast<size_t>(page * options_.page_size);
      size_t end = std::min(followers.size(),
                            begin + static_cast<size_t>(options_.page_size));
      for (size_t i = begin; i < end; ++i) {
        discover(followers[i]);
        if (options_.target_users > 0 &&
            static_cast<int64_t>(result.users.size()) >=
                options_.target_users) {
          target_reached = true;
          break;
        }
      }
    }
  }
  result.elapsed_seconds = clock.Now();
  return result;
}

}  // namespace stir::twitter
