#pragma once

#include <cstdint>
#include <random>

namespace hermes::engine {

/// splitmix64's output function: the 64-bit mix used wherever a stable
/// hash of an id or a seed derivation is needed (ECMP, blackhole
/// predicates, stream forks, shard seeds).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Deterministic random stream: the engine's tie-breaking and fallback
/// placement, and every stochastic component of the simulator (RED and
/// random-drop draws, scheme tie-breaks, workload and fault sampling).
/// Simulator components seed theirs with sim::Simulator::rng_seed(salt),
/// so each draws an independent stream of the scenario seed and runs are
/// reproducible.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_{seed} {}

  /// Uniform integer in [0, n). n must be > 0.
  [[nodiscard]] std::uint64_t next(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>{0, n - 1}(engine_);
  }
  /// Uniform real in [0, 1).
  [[nodiscard]] double uniform() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(engine_);
  }
  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }
  /// Exponential with the given mean (inter-arrival sampling).
  [[nodiscard]] double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }
  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) {
    return std::uniform_real_distribution<double>{0.0, 1.0}(engine_) < p;
  }

  /// Derive an independent child stream; stable for a given (seed, salt).
  [[nodiscard]] Rng fork(std::uint64_t salt) const {
    return Rng{mix64(state_salt_ ^ (salt * 0x9E3779B97F4A7C15ULL))};
  }

 private:
  std::mt19937_64 engine_;
  // The first draw salts fork(); sim::Simulator::rng_seed derives its
  // component seeds from a generator's first draw the same way.
  std::uint64_t state_salt_ = engine_();
};

}  // namespace hermes::engine
