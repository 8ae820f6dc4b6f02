#pragma once

#include <cmath>
#include <cstdint>

#include "hermes/engine/time.hpp"

namespace hermes::engine {

/// Discounting Rate Estimator (CONGA §4.3): a register X incremented by
/// observed bytes that decays multiplicatively with time constant
/// Tdre/alpha, decayed lazily on access instead of by a periodic timer.
/// The estimated rate is X * alpha / Tdre. One estimator serves the
/// engine's path rates r_p, the simulator's flow rates r_f, and every
/// port's link utilization (net::dre_quantized).
class Dre {
 public:
  Dre() = default;
  Dre(TimeNs tdre, double alpha) : tdre_{tdre}, alpha_{alpha} {}

  void add(std::uint64_t bytes, TimeNs now) {
    decay(now);
    x_ += static_cast<double>(bytes);
  }

  /// Estimated rate in bytes/second.
  [[nodiscard]] double rate_bytes_per_sec(TimeNs now) const {
    decay(now);
    return x_ * alpha_ / to_seconds(tdre_);
  }
  /// Estimated rate in bits/second.
  [[nodiscard]] double rate_bps(TimeNs now) const { return 8.0 * rate_bytes_per_sec(now); }

 private:
  void decay(TimeNs now) const {
    if (now <= last_) return;
    const double dt = to_seconds(now - last_);
    // Continuous-time equivalent of "every Tdre, X *= (1 - alpha)".
    x_ *= std::exp(std::log1p(-alpha_) * dt / to_seconds(tdre_));
    last_ = now;
  }

  TimeNs tdre_ = usec(50);
  double alpha_ = 0.1;
  mutable double x_ = 0.0;
  mutable TimeNs last_ = 0;
};

}  // namespace hermes::engine
