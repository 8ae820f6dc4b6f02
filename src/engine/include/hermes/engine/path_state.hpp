#pragma once

#include <cstdint>

#include "hermes/engine/config.hpp"
#include "hermes/engine/rate.hpp"
#include "hermes/engine/time.hpp"

namespace hermes::engine {

/// Path characterization (Table 5 / Algorithm 1).
enum class PathType : std::uint8_t {
  kGood,       ///< low RTT and low ECN fraction: underutilized
  kGray,       ///< conflicting or insufficient signals
  kCongested,  ///< high RTT and high ECN fraction
  kFailed,     ///< blackhole or silent random drops detected
};

[[nodiscard]] constexpr const char* to_string(PathType t) {
  switch (t) {
    case PathType::kGood: return "good";
    case PathType::kGray: return "gray";
    case PathType::kCongested: return "congested";
    case PathType::kFailed: return "failed";
  }
  return "?";
}

/// Sensing state Hermes keeps per (source group, destination group, path):
/// RTT and ECN-fraction estimates fed by data ACKs and probe replies, the
/// aggregate local sending rate r_p, and the retransmission-rate failure
/// detector (§3.1). Characterization is a pure function of this state and
/// the thresholds (Algorithm 1), so it is evaluated on demand.
class PathState {
 public:
  /// Feed one RTT + ECN observation (from an ACK or a probe reply).
  void add_sample(TimeNs rtt, bool ecn_marked) {
    if (!has_sample_) {
      rtt_ = rtt;
      ecn_frac_ = ecn_marked ? 1.0 : 0.0;
      has_sample_ = true;
    } else {
      rtt_ = static_cast<TimeNs>((1.0 - kRttEwmaGain) * static_cast<double>(rtt_) +
                                 kRttEwmaGain * static_cast<double>(rtt));
      ecn_frac_ = (1.0 - kEcnEwmaGain) * ecn_frac_ + kEcnEwmaGain * (ecn_marked ? 1 : 0);
    }
  }

  /// Account one transmitted data packet (denominator of f_retransmission,
  /// numerator of r_p).
  void add_send(std::uint32_t bytes, TimeNs now, const Config& cfg) {
    roll_epoch(now, cfg);
    ++sends_in_epoch_;
    rate_dre_.add(bytes, now);
  }

  /// Account one retransmission event attributed to this path.
  void add_retransmit(TimeNs now, const Config& cfg) {
    roll_epoch(now, cfg);
    ++retx_in_epoch_;
  }

  /// Mark the path failed (blackhole/random-drop detector fired).
  void fail(TimeNs now) {
    failed_ = true;
    failed_at_ = now;
    if (fail_streak_ < 8) ++fail_streak_;
  }
  void clear_failure() {
    failed_ = false;
    fail_streak_ = 0;
  }

  /// Failure latch with expiry: once the expiry has elapsed the latch
  /// clears and the detector must re-confirm with fresh evidence. Each
  /// re-confirmation doubles the expiry (up to 128x), so a genuinely
  /// failing switch stays latched almost continuously while a one-off
  /// congestion false positive heals after a single period.
  [[nodiscard]] bool failed_active(TimeNs now, const Config& cfg) {
    if (failed_ && cfg.failure_expiry > 0) {
      const TimeNs expiry = cfg.failure_expiry << (fail_streak_ > 0 ? fail_streak_ - 1 : 0);
      if (now - failed_at_ > expiry) failed_ = false;  // streak kept for backoff
    }
    return failed_;
  }

  /// Algorithm 1 lines 1-7: congestion characterization only.
  [[nodiscard]] PathType congestion_type(const Config& cfg) const {
    if (!has_sample_) return PathType::kGray;
    const bool ecn_low = !cfg.use_ecn || ecn_frac_ < cfg.t_ecn;
    const bool ecn_high = !cfg.use_ecn || ecn_frac_ > cfg.t_ecn;
    if (ecn_low && rtt_ < cfg.t_rtt_low) return PathType::kGood;
    if (ecn_high && rtt_ > cfg.t_rtt_high) return PathType::kCongested;
    return PathType::kGray;
  }

  /// Algorithm 1: characterize this path (failure state included).
  [[nodiscard]] PathType characterize(const Config& cfg) const {
    if (failed_) return PathType::kFailed;
    return congestion_type(cfg);
  }

  [[nodiscard]] bool has_sample() const { return has_sample_; }
  [[nodiscard]] TimeNs rtt() const { return rtt_; }
  [[nodiscard]] double ecn_fraction() const { return ecn_frac_; }
  [[nodiscard]] double retx_fraction() const { return retx_frac_; }
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] double rate_bps(TimeNs now) const { return rate_dre_.rate_bps(now); }

  /// Close the current retransmission epoch if tau has elapsed; returns
  /// true when an epoch boundary was crossed. At the boundary the silent
  /// random-drop detector runs (Algorithm 1 lines 8-9): a high
  /// retransmission rate on a path that is *not* congested cannot be
  /// explained by congestion, so the path is latched as failed.
  bool roll_epoch(TimeNs now, const Config& cfg) {
    if (now - epoch_start_ < kRetxEpoch) return false;
    retx_frac_ = sends_in_epoch_ > 0
                     ? static_cast<double>(retx_in_epoch_) / static_cast<double>(sends_in_epoch_)
                     : 0.0;
    if (cfg.failure_sensing && sends_in_epoch_ >= kMinEpochSends &&
        retx_frac_ > kRetxThreshold &&
        congestion_type(cfg) != PathType::kCongested) {
      // One bad epoch latches, as in the paper (§3.1.2). The min-sends
      // guard keeps tiny samples from condemning a path; an occasional
      // congestion-burst false positive merely removes one of the
      // parallel paths for one group pair.
      fail(now);
    }
    sends_in_epoch_ = 0;
    retx_in_epoch_ = 0;
    epoch_start_ = now;
    return true;
  }

  /// Minimum per-epoch sample count before the drop detector may fire
  /// (one retransmission among a handful of packets is not evidence).
  static constexpr std::uint32_t kMinEpochSends = 25;

 private:
  TimeNs rtt_ = 0;
  double ecn_frac_ = 0;
  bool has_sample_ = false;

  Dre rate_dre_{usec(100), 0.2};

  std::uint32_t sends_in_epoch_ = 0;
  std::uint32_t retx_in_epoch_ = 0;
  double retx_frac_ = 0;
  TimeNs epoch_start_ = 0;

  bool failed_ = false;
  TimeNs failed_at_ = 0;
  std::uint32_t fail_streak_ = 0;
};

}  // namespace hermes::engine
