#include "hermes/faults/scenario_fuzzer.hpp"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "hermes/faults/random_faults.hpp"
#include "hermes/engine/rng.hpp"

namespace hermes::faults::fuzz {

namespace {

/// Fixed float formatting for describe(): enough digits to round-trip
/// every value the generator produces, stable across platforms for the
/// IEEE-754 doubles our uniform draws yield.
std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string fmt_ns(sim::SimTime t) { return std::to_string(t.ns()); }

/// Canonical note for a rack-pair blackhole: the predicate itself is a
/// std::function (unserializable), so the parameters that built it are
/// recorded in the event note and describe() stays byte-exact.
std::string blackhole_note(int src_leaf, int dst_leaf, bool half) {
  return "bh leaf" + std::to_string(src_leaf) + "->leaf" + std::to_string(dst_leaf) +
         " half=" + std::to_string(half ? 1 : 0);
}

}  // namespace

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kWebSearch: return "web-search";
    case Workload::kDataMining: return "data-mining";
  }
  return "?";
}

std::string FuzzScenario::describe() const {
  std::string s = "fuzz-scenario v2 seed=" + std::to_string(seed) + "\n";
  s += "topo leaves=" + std::to_string(topo.num_leaves) +
       " spines=" + std::to_string(topo.num_spines) +
       " hosts_per_leaf=" + std::to_string(topo.hosts_per_leaf) +
       " links_per_pair=" + std::to_string(topo.links_per_pair) +
       " host_bps=" + fmt(topo.host_rate_bps) + " fabric_bps=" + fmt(topo.fabric_rate_bps) +
       "\n";
  for (const auto& [key, bps] : topo.fabric_overrides) {
    const auto& [leaf, spine, k] = key;
    s += "override leaf=" + std::to_string(leaf) + " spine=" + std::to_string(spine) +
         " k=" + std::to_string(k) + " bps=" + fmt(bps) + "\n";
  }
  s += "workload dist=" + std::string(to_string(workload)) + " scale=" + fmt(workload_scale) +
       " load=" + fmt(load) + " flows=" + std::to_string(num_flows) + "\n";
  s += "cap_ns=" + fmt_ns(max_sim_time) + "\n";
  for (const FaultEvent& e : plan.events()) {
    s += "fault at_ns=" + fmt_ns(e.at) + " action=" + faults::to_string(e.action) +
         " sw=" + std::to_string(e.sw) + " uplink=" + std::to_string(e.uplink) +
         " rate=" + fmt(e.rate) + " note=" + e.note + "\n";
  }
  return s;
}

FuzzScenario RandomScenarioGenerator::generate(std::uint64_t seed) const {
  // One master stream, drawn in a fixed documented order: topology,
  // workload, base fault plan (forked stream), edge patterns. Changing
  // this order changes every scenario — the golden-hash test will say so.
  engine::Rng rng{seed};
  FuzzScenario sc;
  sc.seed = seed;
  sc.max_sim_time = limits_.max_sim_time;

  // --- topology ---------------------------------------------------------
  const auto span = [&rng](int lo, int hi) {  // uniform int in [lo, hi]
    return lo + static_cast<int>(rng.next(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  sc.topo.num_leaves = span(limits_.min_leaves, limits_.max_leaves);
  sc.topo.num_spines = span(limits_.min_spines, limits_.max_spines);
  std::vector<int> hpl_choices;
  for (const int h : {2, 4, 8}) {
    if (h <= limits_.max_hosts_per_leaf) hpl_choices.push_back(h);
  }
  sc.topo.hosts_per_leaf = hpl_choices[rng.next(hpl_choices.size())];
  sc.topo.links_per_pair = rng.chance(0.25) ? 2 : 1;
  sc.topo.host_rate_bps = 10e9;
  sc.topo.fabric_rate_bps = rng.chance(0.3) ? 40e9 : 10e9;
  if (rng.chance(limits_.asym_prob)) {
    // Build-time capacity asymmetry (the fig13/fig14 dimension). Never 0:
    // a zero override removes the path from enumeration, which is a
    // different (statically known) failure class than what we fuzz.
    const int degraded = span(1, 2);
    const double factors[] = {0.25, 0.4, 0.5};
    for (int i = 0; i < degraded; ++i) {
      const int leaf = static_cast<int>(rng.next(static_cast<std::uint64_t>(sc.topo.num_leaves)));
      const int spine =
          static_cast<int>(rng.next(static_cast<std::uint64_t>(sc.topo.num_spines)));
      const int k =
          static_cast<int>(rng.next(static_cast<std::uint64_t>(sc.topo.links_per_pair)));
      sc.topo.fabric_overrides[{leaf, spine, k}] =
          sc.topo.fabric_rate_bps * factors[rng.next(3)];
    }
  }

  // --- workload ---------------------------------------------------------
  const bool data_mining = rng.chance(0.5);
  sc.workload = data_mining ? Workload::kDataMining : Workload::kWebSearch;
  // Scaled so mean flow size stays in the hundreds-of-KB range: seeds
  // must run in fractions of a second for thousands-deep nightly sweeps.
  sc.workload_scale = data_mining ? rng.uniform(0.02, 0.08) : rng.uniform(0.05, 0.2);
  sc.load = rng.uniform(limits_.min_load, limits_.max_load);
  sc.num_flows = span(limits_.min_flows, limits_.max_flows);

  // --- fault plan: MTBF/MTTR base --------------------------------------
  RandomFaultConfig fc;
  fc.start = sim::msec(span(5, 15));
  fc.horizon = sim::msec(span(80, 200));
  fc.mtbf = sim::msec(span(15, 75));
  fc.mttr = sim::msec(span(5, 45));
  fc.half_pair_blackholes = rng.chance(0.5);
  const net::FabricShape shape = sc.topo.shape();
  sc.plan = RandomFaultGenerator(shape, fc, rng.fork(0xFA5E)).generate();

  // --- fault plan: adversarial edge patterns ----------------------------
  // Overlapping and back-to-back transitions the MTBF process rarely
  // produces but real incident trains do (CAFT's three-tier fault model).
  // Like the base plan, they target any switch and any link.
  if (rng.chance(limits_.edge_pattern_prob)) {
    const int sw = static_cast<int>(rng.next(shape.uplinks.size()));
    const auto any_link = [&] {
      return shape.link(static_cast<int>(rng.next(static_cast<std::uint64_t>(shape.num_links()))));
    };
    const sim::SimTime t1 = sim::msec(span(20, 60));
    const sim::SimTime d = sim::msec(span(10, 30));
    switch (rng.next(4)) {
      case 0:  // flap train: repeated onset/heal on one switch
        sc.plan.flap_random_drop(t1, sw, rng.uniform(0.01, 0.04), d, span(2, 4), 0.5);
        break;
      case 1: {  // back-to-back blackholes: heal and immediate re-onset
        const int a = static_cast<int>(rng.next(static_cast<std::uint64_t>(sc.topo.num_leaves)));
        int b = static_cast<int>(rng.next(static_cast<std::uint64_t>(sc.topo.num_leaves)));
        if (b == a) b = (b + 1) % sc.topo.num_leaves;
        if (b == a) break;  // single-leaf fabric: nothing to blackhole
        const bool half = rng.chance(0.5);
        sc.plan
            .blackhole_on(t1, sw, rack_pair_blackhole(sc.topo.hosts_per_leaf, a, b, half),
                          blackhole_note(a, b, half))
            .blackhole_off(t1 + d, sw, "b2b heal")
            .blackhole_on(t1 + d, sw, rack_pair_blackhole(sc.topo.hosts_per_leaf, b, a, half),
                          blackhole_note(b, a, half))
            .blackhole_off(t1 + d + d, sw, "b2b heal 2");
        break;
      }
      case 2: {  // overlapping cuts of the same link (redundant re-onset)
        const auto [lower, j] = any_link();
        sc.plan.link_down(t1, lower, j, "overlap onset")
            .link_down(t1 + d, lower, j, "overlap re-onset")
            .link_up(t1 + d + d, lower, j, "overlap heal");
        break;
      }
      default: {  // zero-duration faults: onset and heal at the same tick
        sc.plan.random_drop(t1, sw, rng.uniform(0.01, 0.04), "zero-dur on")
            .random_drop(t1, sw, 0.0, "zero-dur off");
        const auto [lower, j] = any_link();
        sc.plan.link_down(t1 + d, lower, j, "zero-dur cut")
            .link_up(t1 + d, lower, j, "zero-dur restore");
        break;
      }
    }
  }
  return sc;
}

}  // namespace hermes::faults::fuzz
