// rng.hpp — deterministic pseudo-random number generation.
//
// All stochastic components of the library (the synthetic weather process in
// particular) draw from this generator so that every experiment in the paper
// reproduction is bit-for-bit repeatable from a seed.  We implement
// xoshiro256** (Blackman & Vigna) seeded through splitmix64, which is the
// recommended seeding procedure; std::mt19937_64 is avoided because its
// state-size and seeding pitfalls make cross-platform reproducibility
// brittle.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/check.hpp"

namespace shep {

/// splitmix64 step; used to expand a single 64-bit seed into generator state.
std::uint64_t SplitMix64(std::uint64_t& state);

/// xoshiro256** PRNG.  Deterministic, copyable, cheap (4 x uint64 state).
///
/// The draw-path methods (NextU64 through Gaussian) are defined inline in
/// this header: the weather synthesizer consumes thousands of draws per
/// simulated day, and an out-of-line call per draw is measurable on the
/// fleet hot path.  The draw SEQUENCE is part of the library's
/// reproducibility contract — optimizations may move these definitions but
/// never change the values they produce.
class Rng {
 public:
  /// Seeds the four state words via splitmix64 so that any seed (including
  /// zero) produces a well-mixed, non-degenerate state.
  explicit Rng(std::uint64_t seed = 0xD1CEu);

  /// Next raw 64 random bits.
  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).  Requires lo <= hi.
  double Uniform(double lo, double hi) {
    SHEP_REQUIRE(lo <= hi, "Uniform bounds must be ordered");
    return lo + (hi - lo) * NextDouble();
  }

  /// Standard normal variate (Marsaglia polar method, cached spare).
  double NextGaussian() {
    if (has_spare_) {
      has_spare_ = false;
      // A spare whose pair was discarded still holds v; its multiplier is
      // computed now, from the same s, so the value is the one an eager
      // pair would have cached.
      return spare_s_ == 0.0 ? spare_ : spare_ * PolarMultiplier(spare_s_);
    }
    double u = 0.0, v = 0.0, s = 0.0;
    DrawPolarPair(u, v, s);
    const double mul = PolarMultiplier(s);
    spare_ = v * mul;
    spare_s_ = 0.0;
    has_spare_ = true;
    return u * mul;
  }

  /// Advances the generator exactly as one NextGaussian() call would, but
  /// computes no value: a discarded spare costs nothing, and a discarded
  /// first value runs the pair's rejection loop and defers the pair's
  /// log/sqrt until its spare is read — never, when that is discarded
  /// too.  Every later draw is the value it would have been.
  void DiscardGaussian() {
    if (has_spare_) {
      has_spare_ = false;
      return;
    }
    double u = 0.0;
    DrawPolarPair(u, spare_, spare_s_);
    has_spare_ = true;
  }

  /// Normal variate with the given mean and standard deviation (sigma >= 0).
  double Gaussian(double mean, double sigma) {
    SHEP_REQUIRE(sigma >= 0.0, "Gaussian sigma must be non-negative");
    return mean + sigma * NextGaussian();
  }

  /// Uniform integer in [0, n).  Requires n > 0.  Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t NextBelow(std::uint64_t n);

  /// Bernoulli draw: true with probability p (clamped to [0,1]).
  bool NextBool(double p);

  /// Derives an independent child generator; stream `i` of the same parent
  /// seed is stable across runs.  Used to give each simulated day/site its
  /// own stream so that changing one site's parameters cannot shift another
  /// site's randomness.
  Rng Fork(std::uint64_t stream) const;

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// The polar method's rejection loop: a point uniform in the unit disc
  /// minus its centre, and its squared radius s in (0, 1).
  void DrawPolarPair(double& u, double& v, double& s) {
    do {
      u = 2.0 * NextDouble() - 1.0;
      v = 2.0 * NextDouble() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
  }

  static double PolarMultiplier(double s) {
    return std::sqrt(-2.0 * std::log(s) / s);
  }

  std::uint64_t s_[4];
  double spare_ = 0.0;
  /// 0 when spare_ is the final value; otherwise spare_ holds the pair's v
  /// and this its s, because the pair's first value was discarded.
  double spare_s_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace shep
