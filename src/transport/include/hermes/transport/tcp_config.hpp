#pragma once

#include <cstdint>

#include "hermes/sim/time.hpp"

namespace hermes::transport {

/// Transport constants (§5.1 of the paper): DCTCP with an initial window
/// of 10 packets and initial/minimum RTO of 10ms. The receiver ACKs every
/// data packet.
inline constexpr std::uint32_t kMss = 1460;  ///< payload bytes per segment
inline constexpr std::uint32_t kInitCwndPkts = 10;
inline constexpr std::uint32_t kMinCwndPkts = 2;  ///< floor after an ECN window cut
inline constexpr std::uint64_t kMaxCwndBytes = 5 * 1024 * 1024;
inline constexpr sim::SimTime kInitRto = sim::msec(10);
inline constexpr sim::SimTime kMaxRto = sim::msec(320);
inline constexpr std::uint32_t kDupackThreshold = 3;
inline constexpr double kDctcpG = 1.0 / 16.0;

/// Transport parameters that runs vary.
struct TcpConfig {
  bool dctcp = true;  ///< false = plain NewReno, ECN ignored

  /// Receiver-side reordering mask (Presto*'s reordering buffer): hold
  /// out-of-order arrivals for up to `reorder_hold` before emitting
  /// duplicate ACKs, so spraying does not trigger spurious fast
  /// retransmits while genuine losses are still recovered.
  bool reorder_buffer = false;
  sim::SimTime reorder_hold = sim::usec(300);
};

}  // namespace hermes::transport
