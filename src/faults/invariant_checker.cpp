#include "hermes/faults/invariant_checker.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hermes/obs/metrics.hpp"

namespace hermes::faults {

const char* to_string(Invariant inv) {
  switch (inv) {
    case Invariant::kByteConservation: return "byte-conservation";
    case Invariant::kQueueBound: return "queue-bound";
    case Invariant::kSharedBuffer: return "shared-buffer";
  }
  return "?";
}

InvariantChecker::InvariantChecker(sim::Simulator& simulator, net::Fabric& fabric,
                                   InvariantCheckerConfig config)
    : simulator_{simulator}, fabric_{fabric}, config_{config} {
  install_hooks();
  if (config_.period > sim::SimTime::zero()) {
    simulator_.after<&InvariantChecker::tick>(config_.period, this);
  }
}

template <typename Fn>
void InvariantChecker::for_each_port(Fn&& fn) const {
  for (int h = 0; h < fabric_.num_hosts(); ++h) fn(fabric_.host(h).nic());
  for (const auto& sw : fabric_.switches())
    for (int p = 0; p < sw->num_ports(); ++p) fn(sw->port(p));
}

void InvariantChecker::install_hooks() {
  // Ingress: every byte the fabric accepts enters through a host NIC
  // (data, ACKs, probes, probe replies alike). A NIC drop still counts as
  // injected — the byte entered the accounting and left it as a drop.
  // Predecessor hooks move into checker-owned vectors (the inline-storage
  // hook type cannot capture a same-sized predecessor); wrappers then
  // dispatch through `this` + index.
  const int num_hosts = fabric_.num_hosts();
  prev_nic_enqueue_.resize(static_cast<std::size_t>(num_hosts));
  prev_nic_drop_.resize(static_cast<std::size_t>(num_hosts));
  prev_host_rx_.resize(static_cast<std::size_t>(num_hosts));
  for (int h = 0; h < num_hosts; ++h) {
    net::Port& nic = fabric_.host(h).nic();
    prev_nic_enqueue_[h] = std::move(nic.on_enqueue);
    nic.on_enqueue = [this, h](const net::Packet& p) {
      ++injected_packets_;
      injected_bytes_ += p.size;
      if (prev_nic_enqueue_[h]) prev_nic_enqueue_[h](p);
    };
    prev_nic_drop_[h] = std::move(nic.on_drop);
    nic.on_drop = [this, h](const net::Packet& p) {
      ++injected_packets_;
      injected_bytes_ += p.size;
      ++hook_dropped_packets_;
      hook_dropped_bytes_ += p.size;
      if (prev_nic_drop_[h]) prev_nic_drop_[h](p);
    };
    // Egress: delivery back to a host.
    net::Host& host = fabric_.host(h);
    prev_host_rx_[h] = std::move(host.on_receive);
    host.on_receive = [this, h](net::Packet p, int in_port) {
      ++delivered_packets_;
      delivered_bytes_ += p.size;
      if (prev_host_rx_[h]) prev_host_rx_[h](std::move(p), in_port);
    };
  }
  // Drops inside the fabric (queue overflow and link-down; injected
  // switch-failure drops are read from the per-switch counters).
  for (const auto& sw : fabric_.switches()) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      net::Port& port = sw->port(p);
      const std::size_t idx = prev_switch_drop_.size();
      prev_switch_drop_.push_back(std::move(port.on_drop));
      port.on_drop = [this, idx](const net::Packet& pkt) {
        ++hook_dropped_packets_;
        hook_dropped_bytes_ += pkt.size;
        if (prev_switch_drop_[idx]) prev_switch_drop_[idx](pkt);
      };
    }
  }
}

std::uint64_t InvariantChecker::dropped_bytes() const {
  std::uint64_t b = hook_dropped_bytes_;
  for (const auto& sw : fabric_.switches()) b += sw->failure_drop_bytes();
  return b;
}

std::uint64_t InvariantChecker::in_flight_bytes() const {
  std::uint64_t b = 0;
  for_each_port([&b](const net::Port& p) { b += p.backlog_bytes() + p.wire_bytes(); });
  return b;
}

void InvariantChecker::violation(Invariant inv, const std::string& what,
                                 std::uint64_t flow_id) {
  // Triage-grade message: self-contained even when the surrounding run
  // context (log file, FUZZ trace name) is lost. Fixed field order so
  // fuzz reports diff cleanly across seeds.
  const sim::SimTime now = simulator_.now();
  std::string msg = "t=" + std::to_string(now.ns()) + "ns invariant=" + to_string(inv) +
                    " flow=" +
                    (flow_id == InvariantViolation::kNoFlow ? std::string("-")
                                                            : std::to_string(flow_id)) +
                    " " + what;
  ++violation_counts_[static_cast<int>(inv)];
  violations_.push_back({now, inv, flow_id, std::move(msg)});
}

void InvariantChecker::register_metrics(obs::MetricsRegistry& reg) {
  reg.counter_fn("invariants.checks_run", [this] { return checks_run_; });
  reg.counter_fn("invariants.violations.byte_conservation", [this] {
    return violation_counts_[static_cast<int>(Invariant::kByteConservation)];
  });
  reg.counter_fn("invariants.violations.queue_bound", [this] {
    return violation_counts_[static_cast<int>(Invariant::kQueueBound)];
  });
  reg.counter_fn("invariants.violations.shared_buffer", [this] {
    return violation_counts_[static_cast<int>(Invariant::kSharedBuffer)];
  });
  reg.counter_fn("invariants.stuck_flows_max",
                 [this] { return static_cast<std::uint64_t>(max_stuck_flows_); });
}

void InvariantChecker::check_conservation(const char* context) {
  const std::uint64_t injected = injected_bytes_;
  const std::uint64_t accounted = delivered_bytes_ + dropped_bytes() + in_flight_bytes();
  if (injected != accounted) {
    violation(Invariant::kByteConservation,
              std::string("broken (") + context + "): injected=" + std::to_string(injected) +
                  " accounted=" + std::to_string(accounted) + " delta=" +
                  std::to_string(static_cast<std::int64_t>(injected) -
                                 static_cast<std::int64_t>(accounted)));
  }
}

void InvariantChecker::check_queue_bounds(const char* context) {
  for_each_port([&](const net::Port& p) {
    // Shared-buffer ports are bounded by the pool, checked below.
    if (p.pooled()) return;
    if (p.backlog_bytes() > p.config().queue_capacity_bytes) {
      violation(Invariant::kQueueBound,
                std::string("exceeded (") + context + "): " + p.name() + " holds " +
                    std::to_string(p.backlog_bytes()) + " > cap " +
                    std::to_string(p.config().queue_capacity_bytes));
    }
  });
  for (const auto& sw : fabric_.switches()) {
    const net::DynamicThresholdPool* pool = sw->shared_buffer();
    if (pool && pool->used() > pool->total()) {
      violation(Invariant::kSharedBuffer,
                std::string("overflow (") + context + "): " + sw->name() + " uses " +
                    std::to_string(pool->used()) + " > " + std::to_string(pool->total()));
    }
  }
}

void InvariantChecker::update_watchdog() {
  if (!snapshot_fn_) return;
  const sim::SimTime now = simulator_.now();
  const std::vector<FlowProgress> snap = snapshot_fn_();
  std::size_t stuck = 0;
  // In-place epoch-stamped update: live flows refresh their entry, and a
  // single erase pass drops finished flows — no per-tick map rebuild.
  ++watchdog_epoch_;
  progress_.reserve(snap.size());
  for (const FlowProgress& fp : snap) {
    auto [it, inserted] = progress_.try_emplace(fp.id, Progress{fp.bytes_acked, now, 0});
    if (!inserted && it->second.bytes != fp.bytes_acked) {
      it->second.bytes = fp.bytes_acked;
      it->second.since = now;
    } else if (!inserted && now - it->second.since >= config_.stuck_after) {
      ++stuck;
    }
    it->second.epoch = watchdog_epoch_;
  }
  std::erase_if(progress_,
                [this](const auto& kv) { return kv.second.epoch != watchdog_epoch_; });
  stuck_flows_ = stuck;
  if (stuck > max_stuck_flows_) max_stuck_flows_ = stuck;
}

void InvariantChecker::check_now(const char* context) {
  ++checks_run_;
  check_conservation(context);
  check_queue_bounds(context);
  update_watchdog();
}

void InvariantChecker::on_fault_transition(const FaultEvent& e) {
  check_now(to_string(e.action));
}

void InvariantChecker::tick() {
  check_now("periodic");
  simulator_.after<&InvariantChecker::tick>(config_.period, this);
}

}  // namespace hermes::faults
