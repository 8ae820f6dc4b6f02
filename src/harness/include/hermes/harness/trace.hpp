#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "hermes/net/port.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::harness {

/// Periodic sampler of a port's queue backlog, for the queue-oscillation
/// figures (Fig. 2b, Fig. 4b).
class QueueTrace {
 public:
  QueueTrace(sim::Simulator& simulator, const net::Port& port, sim::SimTime interval)
      : simulator_{simulator}, port_{port}, interval_{interval} {}

  void start(sim::SimTime until) {
    until_ = until;
    tick();
  }

  /// (time_us, backlog_bytes) samples.
  [[nodiscard]] const std::vector<std::pair<double, std::uint32_t>>& samples() const {
    return samples_;
  }
  [[nodiscard]] std::uint32_t max_backlog() const {
    std::uint32_t m = 0;
    for (const auto& [t, b] : samples_) m = std::max(m, b);
    return m;
  }
  [[nodiscard]] double mean_backlog() const {
    if (samples_.empty()) return 0;
    double sum = 0;
    for (const auto& [t, b] : samples_) sum += b;
    return sum / static_cast<double>(samples_.size());
  }

 private:
  void tick() {
    samples_.emplace_back(simulator_.now().to_usec(), port_.backlog_bytes());
    if (simulator_.now() < until_) simulator_.after<&QueueTrace::tick>(interval_, this);
  }

  sim::Simulator& simulator_;
  const net::Port& port_;
  sim::SimTime interval_;
  sim::SimTime until_{};
  std::vector<std::pair<double, std::uint32_t>> samples_;
};

}  // namespace hermes::harness
