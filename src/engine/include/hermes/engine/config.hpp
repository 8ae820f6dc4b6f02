#pragma once

#include <cstdint>

#include "hermes/engine/time.hpp"

namespace hermes::engine {

/// Hermes engine parameters (the paper's Table 4, §3.3) in environment-
/// neutral units: durations are TimeNs, the cautious-rerouting rate gate
/// is an absolute bits/second limit. Embedders derive thresholds from
/// their own fabric knowledge — the simulator adapter converts its
/// HermesConfig (SimTime fields, a rate *fraction* of the host link) into
/// this struct; a serving daemon sets them from measured base RTTs. The
/// paper's derivation, for reference:
///   t_rtt_low  = base RTT + 20..40us          (default +30us)
///   t_rtt_high = base RTT + 1.5 x one-hop delay
///   delta_rtt  = one-hop delay
struct Config {
  // Congestion sensing thresholds (Algorithm 1).
  double t_ecn = 0.40;        ///< ECN fraction of a congested path
  TimeNs t_rtt_low = 0;       ///< below: lightly loaded
  TimeNs t_rtt_high = 0;      ///< above (with ECN): congested
  // "Notably better" margins for cautious rerouting (Algorithm 2).
  TimeNs delta_rtt = 0;
  double delta_ecn = 0.05;
  // Flow-status gates for cautious rerouting: only flows that sent more
  // than S bytes and run slower than the absolute rate limit R reroute.
  double reroute_rate_limit_bps = 0;  ///< R; 0 disables congestion reroutes
  std::uint64_t sent_threshold_bytes = 600 * 1024;  ///< S

  // Failure sensing (§3.1.2); the detectors' thresholds are the
  // constants below.
  /// A failure latch expires after this long and must be re-confirmed by
  /// fresh evidence; each re-confirmation doubles the expiry (capped at
  /// 128x). 0 = latch forever.
  TimeNs failure_expiry = msec(100);

  /// Minimum spacing between congestion-triggered reroutes of one flow.
  TimeNs reroute_min_gap = msec(2);

  // Feature toggles (ablations of Fig. 18; §5.4 TCP mode).
  bool rerouting_enabled = true;   ///< reroute ongoing flows on congestion
  bool failure_sensing = true;
  bool use_ecn = true;             ///< false: sense with RTT only (plain TCP)
};

// Failure sensing (§3.1.2).
inline constexpr std::uint32_t kBlackholeTimeouts = 3;  ///< timeouts w/o any ACK => blackhole
inline constexpr double kRetxThreshold = 0.01;          ///< f_retransmission limit
inline constexpr TimeNs kRetxEpoch = msec(10);          ///< tau

// Signal smoothing.
inline constexpr double kRttEwmaGain = 0.5;
inline constexpr double kEcnEwmaGain = 1.0 / 16.0;

/// Envoy-style panic threshold over *administrative* path health: when
/// the healthy fraction of a path set drops below this, health filtering
/// is abandoned and traffic is spread over every member — sending to a
/// possibly-unhealthy backend beats sending to none. Sensed failure
/// latches (blackhole / random-drop detectors) are not affected; they
/// keep their own always-transmit-somewhere fallback.
inline constexpr double kPanicThreshold = 0.5;

}  // namespace hermes::engine
