#include <cstdint>

#include "hermes/faults/random_faults.hpp"

namespace hermes::faults {

FaultPlan RandomFaultGenerator::generate() {
  FaultPlan plan;
  const double wsum = config_.w_random_drop + config_.w_blackhole + config_.w_link_down +
                      config_.w_link_degrade;
  if (wsum <= 0 || config_.mtbf <= sim::SimTime::zero()) return plan;

  const auto exp_time = [this](sim::SimTime mean) {
    return sim::SimTime::from_seconds(rng_.exponential(mean.to_seconds()));
  };
  const auto pick = [this](int n) {
    return static_cast<int>(rng_.next(static_cast<std::uint64_t>(n)));
  };
  const int num_switches = static_cast<int>(shape_.uplinks.size());

  sim::SimTime t = config_.start;
  const sim::SimTime end = config_.start + config_.horizon;
  while (true) {
    t += exp_time(config_.mtbf);
    if (t >= end) break;
    const sim::SimTime heal = t + exp_time(config_.mttr);

    double weight = rng_.uniform() * wsum;
    if ((weight -= config_.w_random_drop) < 0) {
      const int sw = pick(num_switches);
      const double rate = rng_.uniform(config_.drop_rate_lo, config_.drop_rate_hi);
      plan.random_drop(t, sw, rate, "mtbf onset");
      plan.random_drop(heal, sw, 0.0, "mttr heal");
    } else if ((weight -= config_.w_blackhole) < 0) {
      const int sw = pick(num_switches);
      const int a = pick(shape_.num_leaves);
      int b = pick(shape_.num_leaves);
      if (b == a) b = (b + 1) % shape_.num_leaves;
      if (b == a) continue;  // single-leaf fabric: nothing to blackhole
      plan.blackhole_on(
          t, sw, rack_pair_blackhole(shape_.hosts_per_leaf, a, b, config_.half_pair_blackholes),
          "mtbf onset");
      plan.blackhole_off(heal, sw, "mttr heal");
    } else if ((weight -= config_.w_link_down) < 0) {
      const auto [sw, j] = shape_.link(pick(shape_.num_links()));
      plan.link_down(t, sw, j, "mtbf onset");
      plan.link_up(heal, sw, j, "mttr heal");
    } else {
      const auto [sw, j] = shape_.link(pick(shape_.num_links()));
      plan.link_rate(t, sw, j, config_.degrade_factor, "mtbf onset");
      plan.link_rate(heal, sw, j, 1.0, "mttr heal");
    }
  }
  return plan;
}

}  // namespace hermes::faults
