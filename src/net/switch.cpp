#include "hermes/net/switch.hpp"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace hermes::net {

Switch::Switch(sim::Simulator& simulator, PacketArena& arena, int id, std::string name)
    : simulator_{simulator},
      arena_{arena},
      id_{id},
      name_{std::move(name)},
      drop_rng_{simulator.rng_seed(0x5117C4 + static_cast<std::uint64_t>(id))} {}

void Switch::use_shared_buffer(std::uint64_t total_bytes, double alpha) {
  pool_ = std::make_unique<DynamicThresholdPool>(total_bytes, alpha);
  for (auto& p : ports_) p->set_buffer_pool(pool_.get());
}

int Switch::add_port(PortConfig config, Device* peer, int peer_in_port) {
  const int idx = static_cast<int>(ports_.size());
  ports_.push_back(std::make_unique<Port>(simulator_, arena_,
                                          name_ + ":p" + std::to_string(idx), config, peer,
                                          peer_in_port));
  return idx;
}

// HERMES_HOT: the fabric forwarding path — every packet crosses this
// once per hop; no allocation allowed. The packet stays in its arena
// slot; route lookup and CONGA stamping work through the reference.
void Switch::receive(PacketHandle h, int /*in_port*/) {
  Packet& p = arena_[h];
  // Failure injectors model silent switch malfunctions: the packet vanishes
  // with no NACK, no ICMP, no counter visible to the load balancer.
  if (failure_active_) [[unlikely]] {
    if (failure_.blackhole && failure_.blackhole(p)) {
      ++blackhole_drops_;
      blackhole_drop_bytes_ += p.size;
      arena_.free(h);
      return;
    }
    if (failure_.random_drop_rate > 0.0 && drop_rng_.chance(failure_.random_drop_rate)) {
      ++random_drops_;
      random_drop_bytes_ += p.size;
      arena_.free(h);
      return;
    }
  }

  assert(p.hop < p.route.len && "source route exhausted at a switch");
  const int egress = p.route.ports[p.hop++];
  Port& out = *ports_[egress];
  if (conga_stamping && out.is_fabric && p.type != PacketType::kAck) {
    const std::uint8_t m = out.conga_metric();
    if (m > p.conga_ce) p.conga_ce = m;
  }
  out.send(h);
}

}  // namespace hermes::net
