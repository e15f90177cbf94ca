#ifndef MMCONF_COMMON_RNG_H_
#define MMCONF_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mmconf {

/// splitmix64's state increment (the golden-ratio gamma).
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ull;

/// splitmix64's output for state `x`: the finalizer applied to
/// x + gamma. A bijection on 64-bit values, so distinct inputs never
/// collide. It expands Rng seeds, mixes ids in the shard-routing hash
/// and ranks speakers for compositor tie-breaks.
inline uint64_t Mix64(uint64_t x) {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic pseudo-random generator (xoshiro256**). All stochastic
/// parts of the library (synthetic media, workload generators, EM
/// initialization) take an explicit `Rng` so experiments are reproducible
/// bit-for-bit from a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, n). `n` must be > 0.
  uint64_t NextBelow(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal via Box-Muller.
  double Gaussian();
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Bernoulli trial.
  bool Chance(double p) { return NextDouble() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = NextBelow(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0;
};

}  // namespace mmconf

#endif  // MMCONF_COMMON_RNG_H_
