#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hermes/net/buffer_pool.hpp"
#include "hermes/net/device.hpp"
#include "hermes/net/packet.hpp"
#include "hermes/net/port.hpp"
#include "hermes/engine/rng.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::net {

/// Silent failures a production switch can exhibit (Guo et al., Pingmesh;
/// Hermes §2.1). Both drop packets without any signal to the rest of the
/// network, which is exactly what makes them hard for load balancers.
struct SwitchFailureConfig {
  /// Deterministic blackhole: packets matching the predicate are always
  /// dropped (e.g. certain source-destination pairs or port patterns).
  std::function<bool(const Packet&)> blackhole;
  /// Silent random drop rate in [0, 1] applied to every transiting packet.
  double random_drop_rate = 0.0;
};

/// An output-queued switch that forwards along the packet's source route.
/// It also stamps CONGA's in-band congestion metric: each fabric hop
/// updates conga_ce with the max of the egress link's quantized DRE.
class Switch : public Device {
 public:
  Switch(sim::Simulator& simulator, PacketArena& arena, int id, std::string name);

  /// Add an output port; returns its index.
  int add_port(PortConfig config, Device* peer, int peer_in_port);

  void receive(PacketHandle h, int in_port) override;

  /// Convenience for tests and injectors that hold a by-value packet:
  /// places it into the arena and forwards the handle.
  void receive(Packet&& p, int in_port) { receive(arena_.alloc(std::move(p)), in_port); }

  [[nodiscard]] Port& port(int i) { return *ports_[i]; }
  [[nodiscard]] const Port& port(int i) const { return *ports_[i]; }
  [[nodiscard]] int num_ports() const { return static_cast<int>(ports_.size()); }
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  void set_failure(SwitchFailureConfig failure) {
    failure_ = std::move(failure);
    refresh_failure_flag();
  }
  /// Runtime mutators for one failure dimension at a time (fault events
  /// toggle a blackhole without clobbering a concurrent drop rate).
  void set_blackhole(std::function<bool(const Packet&)> predicate) {
    failure_.blackhole = std::move(predicate);
    refresh_failure_flag();
  }
  void clear_blackhole() {
    failure_.blackhole = nullptr;
    refresh_failure_flag();
  }
  void set_random_drop_rate(double rate) {
    failure_.random_drop_rate = rate;
    refresh_failure_flag();
  }
  [[nodiscard]] const SwitchFailureConfig& failure() const { return failure_; }

  /// Injected-failure drops split by reason (and total, for convenience).
  [[nodiscard]] std::uint64_t blackhole_drops() const { return blackhole_drops_; }
  [[nodiscard]] std::uint64_t random_drops() const { return random_drops_; }
  [[nodiscard]] std::uint64_t failure_drops() const { return blackhole_drops_ + random_drops_; }
  [[nodiscard]] std::uint64_t failure_drop_bytes() const {
    return blackhole_drop_bytes_ + random_drop_bytes_;
  }

  /// Replace per-port static buffers with one shared pool managed by the
  /// Dynamic Threshold algorithm (call after all ports are added).
  void use_shared_buffer(std::uint64_t total_bytes, double alpha);
  [[nodiscard]] const DynamicThresholdPool* shared_buffer() const { return pool_.get(); }

  /// When true (default), transiting packets get CONGA metric stamping.
  bool conga_stamping = true;

 private:
  /// Cached "any failure injector armed" bit so the healthy forwarding
  /// path pays a single predicted branch instead of a std::function
  /// test plus a double compare per packet.
  void refresh_failure_flag() {
    failure_active_ = static_cast<bool>(failure_.blackhole) || failure_.random_drop_rate > 0.0;
  }

  sim::Simulator& simulator_;
  PacketArena& arena_;
  int id_;
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
  SwitchFailureConfig failure_;
  bool failure_active_ = false;
  engine::Rng drop_rng_;
  std::uint64_t blackhole_drops_ = 0;
  std::uint64_t blackhole_drop_bytes_ = 0;
  std::uint64_t random_drops_ = 0;
  std::uint64_t random_drop_bytes_ = 0;
  std::unique_ptr<DynamicThresholdPool> pool_;
};

}  // namespace hermes::net
