#include "common/random.h"

#include <cmath>
#include <limits>

#include "common/logging.h"

namespace stir {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (int i = 0; i < 4; ++i) s_[i] = SplitMix64(sm);
}

uint64_t Rng::Next() {
  // xoshiro256** by Blackman & Vigna (public domain reference algorithm).
  uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::Uniform(double lo, double hi) {
  STIR_CHECK_LT(lo, hi);
  return lo + (hi - lo) * Uniform();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  STIR_CHECK_LE(lo, hi);
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  // Unsigned arithmetic: hi - lo overflows int64_t for ranges past 2^63.
  const auto base = static_cast<uint64_t>(lo);
  uint64_t range = static_cast<uint64_t>(hi) - base + 1;
  if (range == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Rejection sampling to remove modulo bias: draws above `limit`, the
  // last value that completes a whole cycle of `range`, are redrawn.
  // limit >= kMax - range + 1, so a draw up to that passes without the
  // division that computes limit.
  uint64_t draw = Next();
  if (draw > kMax - range + 1) {
    const uint64_t limit = kMax - (kMax % range + 1) % range;
    while (draw > limit) draw = Next();
  }
  return static_cast<int64_t>(base + draw % range);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return Uniform() < p;
}

double Rng::Normal(double mean, double stddev) {
  // Box-Muller; draws a fresh pair each call (no cached spare) so the
  // stream stays position-independent.
  double u1 = Uniform();
  double u2 = Uniform();
  while (u1 <= 0.0) u1 = Uniform();
  double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double Rng::Exponential(double lambda) {
  STIR_CHECK_GT(lambda, 0.0);
  double u = Uniform();
  while (u <= 0.0) u = Uniform();
  return -std::log(u) / lambda;
}

int64_t Rng::Poisson(double lambda) {
  STIR_CHECK_GE(lambda, 0.0);
  if (lambda == 0.0) return 0;
  if (lambda > 64.0) {
    // Normal approximation with continuity correction.
    double draw = Normal(lambda, std::sqrt(lambda));
    return draw < 0.0 ? 0 : static_cast<int64_t>(draw + 0.5);
  }
  double limit = std::exp(-lambda);
  double product = Uniform();
  int64_t count = 0;
  while (product > limit) {
    product *= Uniform();
    ++count;
  }
  return count;
}

int64_t Rng::Zipf(int64_t n, double s) {
  ZipfDistribution dist(n, s);
  return dist.Sample(*this);
}

Rng Rng::Fork(uint64_t salt) {
  uint64_t mix = s_[0] ^ Rotl(salt, 13) ^ 0xA5A5A5A5DEADBEEFULL;
  // Advance our own state so successive forks with the same salt differ.
  mix ^= Next();
  return Rng(mix);
}

ZipfDistribution::ZipfDistribution(int64_t n, double s) : n_(n), s_(s) {
  STIR_CHECK_GE(n, 1);
  STIR_CHECK_GT(s, 0.0);
  cdf_.resize(static_cast<size_t>(n));
  double total = 0.0;
  for (int64_t k = 1; k <= n; ++k) {
    total += std::pow(static_cast<double>(k), -s);
    cdf_[static_cast<size_t>(k - 1)] = total;
  }
  for (double& c : cdf_) c /= total;
}

int64_t ZipfDistribution::Sample(Rng& rng) const {
  double u = rng.Uniform();
  size_t lo = 0;
  size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<int64_t>(lo) + 1;
}

DiscreteDistribution::DiscreteDistribution(const std::vector<double>& weights) {
  STIR_CHECK(!weights.empty());
  size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    STIR_CHECK_GE(w, 0.0);
    total += w;
  }
  normalized_.resize(n);
  if (total <= 0.0) {
    for (size_t i = 0; i < n; ++i) normalized_[i] = 1.0 / static_cast<double>(n);
  } else {
    for (size_t i = 0; i < n; ++i) normalized_[i] = weights[i] / total;
  }

  // Vose's alias method.
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  std::vector<size_t> small, large;
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = normalized_[i] * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    size_t s = small.back();
    small.pop_back();
    size_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (size_t i : large) prob_[i] = 1.0;
  for (size_t i : small) prob_[i] = 1.0;
}

size_t DiscreteDistribution::Sample(Rng& rng) const {
  size_t i = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(prob_.size()) - 1));
  return rng.Uniform() < prob_[i] ? i : alias_[i];
}

}  // namespace stir
