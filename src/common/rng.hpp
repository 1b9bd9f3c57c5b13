// Deterministic random number generation. All stochastic components in the
// simulator take an explicit seed so that every bench and test is
// reproducible run-to-run (see DESIGN.md §4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>

namespace parva {

/// Central registry of Rng::stream tag values (audit rule R10). Every
/// stream() call site must pass one of these enumerators: two call sites
/// sharing a tag value draw correlated streams, which silently destroys
/// the independence the per-entity stream derivation promises. Add new
/// tags here (and to detail::kAllStreamTags below, which carries the
/// pairwise-distinctness proof) rather than minting local constants.
enum class RngStreamTag : std::uint64_t {
  kArrival = 1,  ///< per-service arrival process (cluster_sim)
  kJitter = 2,   ///< per-unit batch-latency jitter
  kToken = 3,    ///< per-service token-length draws (generative LLM)
};

namespace detail {
inline constexpr RngStreamTag kAllStreamTags[] = {
    RngStreamTag::kArrival,
    RngStreamTag::kJitter,
    RngStreamTag::kToken,
};
constexpr bool stream_tags_pairwise_distinct() {
  for (std::size_t i = 0; i < sizeof(kAllStreamTags) / sizeof(kAllStreamTags[0]); ++i) {
    for (std::size_t j = i + 1; j < sizeof(kAllStreamTags) / sizeof(kAllStreamTags[0]);
         ++j) {
      if (kAllStreamTags[i] == kAllStreamTags[j]) return false;
    }
  }
  return true;
}
}  // namespace detail
static_assert(detail::stream_tags_pairwise_distinct(),
              "RngStreamTag values must be pairwise distinct: a shared value "
              "correlates the derived streams");

/// Thin deterministic RNG wrapper around SplitMix64 seeding + xoshiro256**.
/// Cheap to construct, cheap to copy, and stable across platforms (unlike
/// std::normal_distribution, our helpers use explicit algorithms).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value (xoshiro256**).
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

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    return lo + next_u64() % (hi - lo + 1);
  }

  /// Exponentially distributed sample with the given rate (events per unit
  /// time); used for Poisson arrival processes.
  double exponential(double rate);

  /// Standard normal via Box-Muller (stable across standard libraries).
  double normal(double mean, double stddev);

  /// Derives the (tag, index) stream of a seed as a pure function of its
  /// arguments, independent of any other generator's draw position.
  /// Per-entity streams built this way are stable no matter how many other
  /// entities exist or in what order they are constructed; the sharded
  /// event engine relies on this to give every service and every unit the
  /// exact same stream regardless of the shard partition. The tag must be
  /// an RngStreamTag: the raw-integer overload below is private, so a
  /// literal tag does not compile.
  static Rng stream(std::uint64_t seed, RngStreamTag tag, std::uint64_t index) {
    return stream(seed, static_cast<std::uint64_t>(tag), index);
  }

 private:
  static Rng stream(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
    std::uint64_t x = mix64(seed + 0x9e3779b97f4a7c15ULL * (tag + 1));
    x = mix64(x + 0x9e3779b97f4a7c15ULL * (index + 1));
    return Rng(x);
  }

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// SplitMix64 finalizer: the same mix reseed() applies per state word.
  static constexpr std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t state_[4] = {};
};

inline double Rng::exponential(double rate) {
  // Inverse transform; clamp away from 0 to avoid -inf.
  double u = next_double();
  if (u < 1e-300) u = 1e-300;
  return -std::log(u) / rate;
}

inline double Rng::normal(double mean, double stddev) {
  // Box-Muller; discards the second variate for simplicity.
  double u1 = next_double();
  double u2 = next_double();
  if (u1 < 1e-300) u1 = 1e-300;
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(6.283185307179586 * u2);
}

}  // namespace parva
