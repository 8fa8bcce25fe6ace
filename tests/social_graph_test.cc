#include "twitter/social_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace stir::twitter {
namespace {

std::vector<UserId> List(std::span<const uint32_t> ids) {
  return std::vector<UserId>(ids.begin(), ids.end());
}

SocialGraph MakeGraph(int64_t n, uint64_t seed = 1) {
  SocialGraphOptions options;
  options.num_users = n;
  options.mean_following = 8.0;
  Rng rng(seed);
  return SocialGraph::Generate(options, rng);
}

TEST(SocialGraphTest, BasicInvariants) {
  SocialGraph graph = MakeGraph(500);
  EXPECT_EQ(graph.num_users(), 500);
  EXPECT_GT(graph.num_edges(), 500);

  int64_t following_total = 0, follower_total = 0;
  for (UserId u = 0; u < graph.num_users(); ++u) {
    const auto& following = graph.Following(u);
    const auto& followers = graph.Followers(u);
    following_total += static_cast<int64_t>(following.size());
    follower_total += static_cast<int64_t>(followers.size());
    // No self-edges; sorted unique adjacency.
    EXPECT_TRUE(std::is_sorted(following.begin(), following.end()));
    EXPECT_TRUE(
        std::adjacent_find(following.begin(), following.end()) ==
        following.end());
    EXPECT_TRUE(std::find(following.begin(), following.end(), u) ==
                following.end());
  }
  // Edge conservation: every follow edge appears once on each side.
  EXPECT_EQ(following_total, follower_total);
  EXPECT_EQ(following_total, graph.num_edges());
}

TEST(SocialGraphTest, EdgesAreMutuallyConsistent) {
  SocialGraph graph = MakeGraph(300, 2);
  for (UserId u = 0; u < graph.num_users(); ++u) {
    for (UserId v : graph.Following(u)) {
      const auto& followers = graph.Followers(v);
      EXPECT_TRUE(std::binary_search(followers.begin(), followers.end(), u))
          << u << " -> " << v;
    }
  }
}

TEST(SocialGraphTest, DeterministicForSeed) {
  SocialGraph a = MakeGraph(200, 7);
  SocialGraph b = MakeGraph(200, 7);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (UserId u = 0; u < a.num_users(); ++u) {
    EXPECT_EQ(List(a.Following(u)), List(b.Following(u)));
  }
}

TEST(SocialGraphTest, HeavyTailedInDegree) {
  SocialGraph graph = MakeGraph(3000, 3);
  size_t max_followers = 0;
  double total = 0;
  for (UserId u = 0; u < graph.num_users(); ++u) {
    max_followers = std::max(max_followers, graph.Followers(u).size());
    total += static_cast<double>(graph.Followers(u).size());
  }
  double mean = total / static_cast<double>(graph.num_users());
  // Preferential attachment: the hub is far above the mean.
  EXPECT_GT(static_cast<double>(max_followers), mean * 8.0);
}

TEST(SocialGraphTest, MostFollowedUserIsArgmax) {
  SocialGraph graph = MakeGraph(400, 4);
  UserId hub = graph.MostFollowedUser();
  for (UserId u = 0; u < graph.num_users(); ++u) {
    EXPECT_LE(graph.Followers(u).size(), graph.Followers(hub).size());
  }
}

TEST(SocialGraphTest, FromEdgesBuildsExactGraph) {
  SocialGraph graph = SocialGraph::FromEdges(
      4, {{0, 1}, {1, 0}, {2, 1}, {0, 1} /*dup*/, {3, 3} /*self*/});
  EXPECT_EQ(graph.num_users(), 4);
  EXPECT_EQ(graph.num_edges(), 3);
  EXPECT_EQ(List(graph.Following(0)), (std::vector<UserId>{1}));
  EXPECT_EQ(List(graph.Followers(1)), (std::vector<UserId>{0, 2}));
  EXPECT_TRUE(graph.Following(3).empty());
  EXPECT_EQ(graph.MostFollowedUser(), 1);
}

TEST(SocialGraphTest, ReciprocityRoughlyHonored) {
  SocialGraphOptions options;
  options.num_users = 2000;
  options.mean_following = 10.0;
  options.reciprocity = 0.5;
  Rng rng(5);
  SocialGraph graph = SocialGraph::Generate(options, rng);
  int64_t reciprocal = 0, edges = 0;
  for (UserId u = 0; u < graph.num_users(); ++u) {
    for (UserId v : graph.Following(u)) {
      ++edges;
      const auto& back = graph.Following(v);
      reciprocal += std::binary_search(back.begin(), back.end(), u);
    }
  }
  double ratio = static_cast<double>(reciprocal) / static_cast<double>(edges);
  EXPECT_GT(ratio, 0.3);  // both directions counted; ~2*0.5/(1+0.5) ~ 0.66
}

/// An adjacency-list graph, the shape every reference below builds.
struct ReferenceGraph {
  std::vector<std::vector<UserId>> following;
  std::vector<std::vector<UserId>> followers;
  int64_t num_edges = 0;
};

/// The generator as it was before the CSR tables, kept verbatim as the
/// reference: one vector per node grown by push_back, a duplicate scan
/// on both directions of every edge, an int64 pool, then a sort of
/// every list.
ReferenceGraph ReferenceGenerate(const SocialGraphOptions& options,
                                 Rng& rng) {
  ReferenceGraph graph;
  int64_t n = options.num_users;
  graph.following.resize(static_cast<size_t>(n));
  graph.followers.resize(static_cast<size_t>(n));
  std::vector<UserId> pa_pool;
  pa_pool.reserve(static_cast<size_t>(
      n + static_cast<int64_t>(options.mean_following *
                               static_cast<double>(n))));
  pa_pool.push_back(0);
  auto has_edge = [&](UserId from, UserId to) {
    const auto& adj = graph.following[static_cast<size_t>(from)];
    return std::find(adj.begin(), adj.end(), to) != adj.end();
  };
  auto add_edge = [&](UserId from, UserId to) {
    if (from == to || has_edge(from, to)) return false;
    graph.following[static_cast<size_t>(from)].push_back(to);
    graph.followers[static_cast<size_t>(to)].push_back(from);
    pa_pool.push_back(to);
    ++graph.num_edges;
    return true;
  };
  for (UserId u = 1; u < n; ++u) {
    int64_t degree =
        1 + rng.Poisson(std::max(0.0, options.mean_following - 1.0));
    for (int64_t k = 0; k < degree; ++k) {
      UserId target;
      int attempts = 0;
      do {
        if (rng.Bernoulli(options.pa_mix)) {
          target = pa_pool[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(pa_pool.size()) - 1))];
        } else {
          target = rng.UniformInt(0, u - 1);
        }
      } while ((target == u || has_edge(u, target)) && ++attempts < 16);
      if (!add_edge(u, target)) continue;
      if (rng.Bernoulli(options.reciprocity)) add_edge(target, u);
    }
    pa_pool.push_back(u);
  }
  for (auto& adj : graph.following) std::sort(adj.begin(), adj.end());
  for (auto& adj : graph.followers) std::sort(adj.begin(), adj.end());
  return graph;
}

/// FromEdges by definition: the set of distinct non-loop edges.
ReferenceGraph ReferenceFromEdges(
    int64_t n, const std::vector<std::pair<UserId, UserId>>& edges) {
  std::set<std::pair<UserId, UserId>> distinct;
  for (const auto& edge : edges) {
    if (edge.first != edge.second) distinct.insert(edge);
  }
  ReferenceGraph graph;
  graph.following.resize(static_cast<size_t>(n));
  graph.followers.resize(static_cast<size_t>(n));
  for (const auto& [from, to] : distinct) {  // ascending (from, to)
    graph.following[static_cast<size_t>(from)].push_back(to);
    graph.followers[static_cast<size_t>(to)].push_back(from);
  }
  for (auto& adj : graph.followers) std::sort(adj.begin(), adj.end());
  graph.num_edges = static_cast<int64_t>(distinct.size());
  return graph;
}

void ExpectSameGraph(const SocialGraph& graph, const ReferenceGraph& ref,
                     const std::string& label) {
  const int64_t n = static_cast<int64_t>(ref.following.size());
  ASSERT_EQ(graph.num_users(), n) << label;
  ASSERT_EQ(graph.num_edges(), ref.num_edges) << label;
  UserId argmax = 0;
  for (UserId u = 0; u < n; ++u) {
    ASSERT_EQ(List(graph.Following(u)), ref.following[static_cast<size_t>(u)])
        << label << " following of " << u;
    ASSERT_EQ(List(graph.Followers(u)), ref.followers[static_cast<size_t>(u)])
        << label << " followers of " << u;
    if (ref.followers[static_cast<size_t>(u)].size() >
        ref.followers[static_cast<size_t>(argmax)].size()) {
      argmax = u;
    }
  }
  EXPECT_EQ(graph.MostFollowedUser(), argmax) << label;
}

TEST(SocialGraphTest, GenerateMatchesTheAdjacencyListReference) {
  for (int64_t n : {2, 3, 50, 5000}) {
    for (uint64_t seed : {1, 2, 99}) {
      for (double reciprocity : {0.0, 0.35, 1.0}) {
        for (double pa_mix : {0.0, 0.8, 1.0}) {
          SocialGraphOptions options;
          options.num_users = n;
          options.reciprocity = reciprocity;
          options.pa_mix = pa_mix;
          const std::string label =
              "n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
              " reciprocity=" + std::to_string(reciprocity) +
              " pa_mix=" + std::to_string(pa_mix);
          Rng rng(seed);
          Rng ref_rng(seed);
          SocialGraph graph = SocialGraph::Generate(options, rng);
          ExpectSameGraph(graph, ReferenceGenerate(options, ref_rng), label);
          // The same number of draws: the caller's stream continues alike.
          EXPECT_EQ(rng.Next(), ref_rng.Next()) << label;
        }
      }
    }
  }
}

TEST(SocialGraphTest, FromEdgesMatchesTheSetReference) {
  // The explicit case, then seeded random edge lists dense in
  // duplicates and self-loops.
  std::vector<std::pair<UserId, UserId>> fixed = {
      {0, 1}, {1, 0}, {2, 1}, {0, 1}, {3, 3}, {2, 1}, {1, 1}};
  ExpectSameGraph(SocialGraph::FromEdges(4, fixed),
                  ReferenceFromEdges(4, fixed), "fixed");
  ExpectSameGraph(SocialGraph::FromEdges(1, {{0, 0}}),
                  ReferenceFromEdges(1, {{0, 0}}), "single node");
  ExpectSameGraph(SocialGraph::FromEdges(3, {}), ReferenceFromEdges(3, {}),
                  "no edges");
  for (uint64_t seed : {1, 2, 3}) {
    for (int64_t n : {2, 7, 300}) {
      Rng rng(seed);
      std::vector<std::pair<UserId, UserId>> edges;
      for (int64_t e = 0; e < n * 6; ++e) {
        edges.emplace_back(rng.UniformInt(0, n - 1), rng.UniformInt(0, n - 1));
        if (rng.Bernoulli(0.2)) edges.push_back(edges.back());
      }
      ExpectSameGraph(SocialGraph::FromEdges(n, edges),
                      ReferenceFromEdges(n, edges),
                      "seed=" + std::to_string(seed) +
                          " n=" + std::to_string(n));
    }
  }
}

// The tables are built by shards over row ranges that hold about equal
// numbers of entries; the graph must not depend on where they fall.
TEST(SocialGraphTest, GenerateIsTheSameOnEveryPool) {
  SocialGraphOptions options;
  options.num_users = 5000;
  for (int workers : {0, 1, 2, 3, 8}) {
    common::ThreadPool pool(workers);
    Rng rng(7);
    Rng ref_rng(7);
    SocialGraph graph = SocialGraph::Generate(options, rng, &pool);
    const std::string label = "workers=" + std::to_string(workers);
    ExpectSameGraph(graph, ReferenceGenerate(options, ref_rng), label);
    EXPECT_EQ(rng.Next(), ref_rng.Next()) << label;
  }
}

}  // namespace
}  // namespace stir::twitter
