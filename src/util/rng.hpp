#pragma once

#include <cstdint>
#include <limits>

namespace sg {

/// SplitMix64's golden-ratio increment.
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/// One SplitMix64 step: adds the increment to `x` and returns the finalized
/// (bit-mixed) result. Rng::reseed expands seeds with it, and the fleet,
/// supervisor-jitter and SWIFI episode seed derivations mix with it.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic, seedable PRNG (xoshiro256**). Every stochastic element of
/// the simulator (SWIFI target selection, bit positions, workload jitter)
/// draws from an explicitly seeded Rng so campaigns are reproducible.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    for (auto& word : state_) {
      word = splitmix64(seed);
      seed += kSplitMixGamma;
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) for bound >= 1.
  std::uint64_t next_below(std::uint64_t bound) {
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  std::uint32_t next_u32() { return static_cast<std::uint32_t>(next_u64() >> 32); }

  /// Uniform double in [0, 1).
  double next_double() { return (next_u64() >> 11) * (1.0 / 9007199254740992.0); }

  /// Bernoulli draw with success probability p.
  bool chance(double p) { return next_double() < p; }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t state_[4]{};
};

}  // namespace sg
