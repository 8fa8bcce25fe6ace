#ifndef STIR_TWITTER_SOCIAL_GRAPH_H_
#define STIR_TWITTER_SOCIAL_GRAPH_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "twitter/model.h"

namespace stir::common {
class ThreadPool;
}

namespace stir::twitter {

/// Parameters for synthetic follower-graph generation.
struct SocialGraphOptions {
  int64_t num_users = 10000;
  /// Mean out-degree (accounts a user follows); per-user degree is
  /// 1 + Poisson(mean_following - 1).
  double mean_following = 12.0;
  /// Probability that a follow edge is reciprocated.
  double reciprocity = 0.35;
  /// Preferential-attachment strength: with probability `pa_mix` a target
  /// is chosen proportionally to in-degree + 1, else uniformly. Produces
  /// the heavy-tailed follower distribution real Twitter shows.
  double pa_mix = 0.8;
};

/// Directed follower graph: edge u -> v means "u follows v" (v has
/// follower u). Generated once; immutable afterwards. Stored as two CSR
/// tables of 32-bit ids, one per direction, so a node costs two 8-byte
/// offsets and each edge two 4-byte ids.
class SocialGraph {
 public:
  /// Generates via a growing preferential-attachment process. At most
  /// 2^32-1 users. The tables are built on `pool` (inline when null);
  /// the graph is the same for every pool.
  static SocialGraph Generate(const SocialGraphOptions& options, Rng& rng,
                              common::ThreadPool* pool = nullptr);

  /// Builds a graph from explicit follow edges (u follows v). Self-loops
  /// and duplicates are dropped. Useful for tests and for loading real
  /// edge lists.
  static SocialGraph FromEdges(
      int64_t num_users,
      const std::vector<std::pair<UserId, UserId>>& edges);

  int64_t num_users() const { return num_users_; }
  int64_t num_edges() const {
    return static_cast<int64_t>(following_.ids.size());
  }

  /// Accounts `user` follows, ascending ids.
  std::span<const uint32_t> Following(UserId user) const;
  /// Accounts following `user`, ascending ids.
  std::span<const uint32_t> Followers(UserId user) const;

  /// The user with the most followers (the natural crawl seed: the paper
  /// seeded its crawler at a well-connected account).
  UserId MostFollowedUser() const;

  /// Heap bytes held by both tables.
  size_t memory_bytes() const;

 private:
  /// One direction: row u is ids[begin[u], begin[u + 1]).
  struct Csr {
    std::vector<uint64_t> begin;
    std::vector<uint32_t> ids;
    std::span<const uint32_t> Row(size_t row) const {
      return {ids.data() + begin[row], ids.data() + begin[row + 1]};
    }
  };

  /// `from` follows `to`.
  struct Edge {
    uint32_t from;
    uint32_t to;
    auto operator<=>(const Edge&) const = default;
  };

  SocialGraph() = default;

  /// The one way a graph is built: counting-sorts the edges, which must
  /// hold no self-loop or duplicate, into the following table (consuming
  /// them), sorts each list, then fills the follower table by walking
  /// the following lists in id order. The sort and the fill run on
  /// `pool`, each shard writing only its own range of rows.
  static SocialGraph Assemble(int64_t num_users, std::vector<Edge> edges,
                              common::ThreadPool* pool);

  int64_t num_users_ = 0;
  Csr following_;
  Csr followers_;
};

}  // namespace stir::twitter

#endif  // STIR_TWITTER_SOCIAL_GRAPH_H_
