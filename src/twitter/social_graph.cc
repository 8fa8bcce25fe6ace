#include "twitter/social_graph.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace stir::twitter {

namespace {

constexpr int64_t kMaxUsers = std::numeric_limits<uint32_t>::max();

/// Turns per-row counts into inclusive prefix sums: begin[r] becomes the
/// end of row r. A scatter that fills each row from its back with
/// `--begin[r]` then leaves begin[r] at the row's start.
void InclusivePrefixSum(std::vector<uint64_t>& begin) {
  uint64_t sum = 0;
  for (uint64_t& b : begin) {
    sum += b;
    b = sum;
  }
}

/// Runs fn(lo, hi) on `pool` over common::NumShards(pool, n) disjoint
/// row ranges covering [0, n) that hold about equal numbers of entries,
/// going by `begin`: n + 1 nondecreasing CSR offsets (row starts or row
/// ends), whose last is the entry count.
void ForRowShards(common::ThreadPool* pool, const std::vector<uint64_t>& begin,
                  const std::function<void(size_t lo, size_t hi)>& fn) {
  const size_t n = begin.size() - 1;
  const size_t shards = common::NumShards(pool, n);
  std::vector<size_t> bound(shards + 1, n);
  bound[0] = 0;
  for (size_t s = 1; s < shards; ++s) {
    const uint64_t target = begin[n] / shards * s;
    bound[s] = static_cast<size_t>(
        std::lower_bound(begin.begin() + static_cast<ptrdiff_t>(bound[s - 1]),
                         begin.begin() + static_cast<ptrdiff_t>(n), target) -
        begin.begin());
  }
  common::ParallelFor(pool, shards,
                      [&](size_t s) { fn(bound[s], bound[s + 1]); });
}

}  // namespace

SocialGraph SocialGraph::Generate(const SocialGraphOptions& options,
                                  Rng& rng, common::ThreadPool* pool) {
  STIR_CHECK_GE(options.num_users, 2);
  STIR_CHECK_LE(options.num_users, kMaxUsers);
  const int64_t n = options.num_users;

  // Follows plus follow-backs: n * mean degree * (1 + reciprocity), and
  // never more than every ordered pair. The headroom keeps the arrays
  // from regrowing, which would double them.
  const double mean_degree = 1.0 + std::max(0.0, options.mean_following - 1.0);
  const double expected = static_cast<double>(n) * mean_degree *
                          (1.0 + std::clamp(options.reciprocity, 0.0, 1.0));
  const auto edge_capacity = static_cast<size_t>(
      std::min(expected * 1.02 + 64.0,
               static_cast<double>(n) * static_cast<double>(n - 1)));
  std::vector<Edge> edges;
  edges.reserve(edge_capacity);

  // Repeated-target list for preferential attachment: drawing uniformly
  // from it selects proportionally to (in-degree + 1). Nodes enter the
  // pool when they join the graph (growth process), so early nodes
  // accumulate the heavy tail.
  std::vector<uint32_t> pa_pool;
  pa_pool.reserve(static_cast<size_t>(n) + edge_capacity);
  pa_pool.push_back(0);

  // u's follows so far in its own round. Nobody follows u before u
  // joins, and each follow-back of u is made once, right after u's
  // follow it answers; so a duplicate can only be one of u's own draws.
  std::vector<UserId> round;
  auto follows = [&round](UserId target) {
    return std::find(round.begin(), round.end(), target) != round.end();
  };
  auto add_edge = [&](UserId from, UserId to) {
    edges.push_back({static_cast<uint32_t>(from), static_cast<uint32_t>(to)});
    pa_pool.push_back(static_cast<uint32_t>(to));
  };

  for (UserId u = 1; u < n; ++u) {
    int64_t degree =
        1 + rng.Poisson(std::max(0.0, options.mean_following - 1.0));
    round.clear();
    for (int64_t k = 0; k < degree; ++k) {
      UserId target;
      int attempts = 0;
      do {
        if (rng.Bernoulli(options.pa_mix)) {
          // Preferential draw over nodes that joined before u.
          target = pa_pool[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(pa_pool.size()) - 1))];
        } else {
          target = rng.UniformInt(0, u - 1);
        }
      } while ((target == u || follows(target)) && ++attempts < 16);
      if (target == u || follows(target)) continue;
      round.push_back(target);
      add_edge(u, target);
      if (rng.Bernoulli(options.reciprocity)) add_edge(target, u);
    }
    pa_pool.push_back(static_cast<uint32_t>(u));
  }

  std::vector<uint32_t>().swap(pa_pool);
  return Assemble(n, std::move(edges), pool);
}

SocialGraph SocialGraph::FromEdges(
    int64_t num_users, const std::vector<std::pair<UserId, UserId>>& edges) {
  STIR_CHECK_GE(num_users, 1);
  STIR_CHECK_LE(num_users, kMaxUsers);
  std::vector<Edge> checked;
  checked.reserve(edges.size());
  for (const auto& [from, to] : edges) {
    STIR_CHECK_GE(from, 0);
    STIR_CHECK_LT(from, num_users);
    STIR_CHECK_GE(to, 0);
    STIR_CHECK_LT(to, num_users);
    if (from == to) continue;
    checked.push_back({static_cast<uint32_t>(from), static_cast<uint32_t>(to)});
  }
  std::sort(checked.begin(), checked.end());
  checked.erase(std::unique(checked.begin(), checked.end()), checked.end());
  return Assemble(num_users, std::move(checked), nullptr);
}

SocialGraph SocialGraph::Assemble(int64_t num_users, std::vector<Edge> edges,
                                  common::ThreadPool* pool) {
  const auto n = static_cast<size_t>(num_users);
  SocialGraph graph;
  graph.num_users_ = num_users;

  // Counting sort by follower. Walking the edges backwards and filling
  // each row from its back keeps every row in edge order.
  Csr& out = graph.following_;
  out.begin.assign(n + 1, 0);
  for (const Edge& edge : edges) ++out.begin[edge.from];
  InclusivePrefixSum(out.begin);
  out.ids.resize(edges.size());
  for (size_t e = edges.size(); e-- > 0;) {
    out.ids[--out.begin[edges[e].from]] = edges[e].to;
  }
  std::vector<Edge>().swap(edges);

  // Sort each list. The edges carry no self-loops or duplicates:
  // Generate never draws them and FromEdges drops them.
  ForRowShards(pool, out.begin, [&](size_t lo, size_t hi) {
    for (size_t u = lo; u < hi; ++u) {
      std::sort(out.ids.begin() + static_cast<ptrdiff_t>(out.begin[u]),
                out.ids.begin() + static_cast<ptrdiff_t>(out.begin[u + 1]));
    }
  });

  // Follower lists: walking the following lists from the highest id down
  // and filling each follower list from its back leaves it ascending. A
  // shard owns a range of followed ids, walks every list and keeps the
  // entries that fall in its range.
  Csr& in = graph.followers_;
  in.begin.assign(n + 1, 0);
  for (uint32_t v : out.ids) ++in.begin[v];
  InclusivePrefixSum(in.begin);
  in.ids.resize(out.ids.size());
  ForRowShards(pool, in.begin, [&](size_t lo, size_t hi) {
    for (size_t u = n; u-- > 0;) {
      for (uint32_t v : out.Row(u)) {
        if (v - lo < hi - lo) in.ids[--in.begin[v]] = static_cast<uint32_t>(u);
      }
    }
  });
  return graph;
}

std::span<const uint32_t> SocialGraph::Following(UserId user) const {
  STIR_CHECK_GE(user, 0);
  STIR_CHECK_LT(user, num_users());
  return following_.Row(static_cast<size_t>(user));
}

std::span<const uint32_t> SocialGraph::Followers(UserId user) const {
  STIR_CHECK_GE(user, 0);
  STIR_CHECK_LT(user, num_users());
  return followers_.Row(static_cast<size_t>(user));
}

UserId SocialGraph::MostFollowedUser() const {
  UserId best = 0;
  uint64_t best_count = 0;
  for (size_t u = 0; u < static_cast<size_t>(num_users_); ++u) {
    uint64_t count = followers_.begin[u + 1] - followers_.begin[u];
    if (count > best_count) {
      best_count = count;
      best = static_cast<UserId>(u);
    }
  }
  return best;
}

size_t SocialGraph::memory_bytes() const {
  return (following_.begin.capacity() + followers_.begin.capacity()) *
             sizeof(uint64_t) +
         (following_.ids.capacity() + followers_.ids.capacity()) *
             sizeof(uint32_t);
}

}  // namespace stir::twitter
