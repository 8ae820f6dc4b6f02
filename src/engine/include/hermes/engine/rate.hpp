#pragma once

#include <cmath>
#include <cstdint>

#include "hermes/engine/time.hpp"

namespace hermes::engine {

/// A DRE's time constant Tdre and per-Tdre decay factor alpha.
struct DreParams {
  TimeNs tdre;
  double alpha;
};
/// Hermes's rate estimates: the engine's path rates r_p and the
/// simulator's flow rates r_f.
inline constexpr DreParams kRateDre{usec(100), 0.2};
/// Link utilization at every port (CONGA §4.3).
inline constexpr DreParams kLinkDre{usec(50), 0.1};

/// Discounting Rate Estimator (CONGA §4.3): a register X incremented by
/// observed bytes that decays multiplicatively with time constant
/// Tdre/alpha, decayed lazily on access instead of by a periodic timer.
/// The estimated rate is X * alpha / Tdre. One estimator serves the
/// engine's path rates, the simulator's flow rates, and every port's link
/// utilization (net::dre_quantized); the parameters are part of the type,
/// so an instance holds only its register and the time of its last decay.
template <DreParams P>
class Dre {
 public:
  void add(std::uint64_t bytes, TimeNs now) {
    decay(now);
    x_ += static_cast<double>(bytes);
  }

  /// Estimated rate in bytes/second.
  [[nodiscard]] double rate_bytes_per_sec(TimeNs now) const {
    decay(now);
    return x_ * P.alpha / to_seconds(P.tdre);
  }
  /// Estimated rate in bits/second.
  [[nodiscard]] double rate_bps(TimeNs now) const { return 8.0 * rate_bytes_per_sec(now); }

 private:
  void decay(TimeNs now) const {
    if (now <= last_) return;
    const double dt = to_seconds(now - last_);
    // Continuous-time equivalent of "every Tdre, X *= (1 - alpha)".
    x_ *= std::exp(std::log1p(-P.alpha) * dt / to_seconds(P.tdre));
    last_ = now;
  }

  mutable double x_ = 0.0;
  mutable TimeNs last_ = 0;
};
static_assert(sizeof(Dre<kRateDre>) == 16 && sizeof(Dre<kLinkDre>) == 16,
              "a DRE is its register and its last decay time; every path slot holds one");

}  // namespace hermes::engine
