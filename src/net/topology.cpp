#include "hermes/net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "hermes/net/host.hpp"
#include "hermes/net/switch.hpp"

namespace hermes::net {

FabricShape TopologyConfig::shape() const {
  FabricShape s{num_leaves, num_spines, hosts_per_leaf, {}};
  s.uplinks.assign(static_cast<std::size_t>(num_leaves), num_spines * links_per_pair);
  s.uplinks.resize(static_cast<std::size_t>(num_leaves + num_spines), 0);
  return s;
}

double Topology::link_rate(int leaf_id, int spine, int k) const {
  auto it = config_.fabric_overrides.find({leaf_id, spine, k});
  return it != config_.fabric_overrides.end() ? it->second : config_.fabric_rate_bps;
}

Topology::Topology(sim::Simulator& simulator, TopologyConfig config)
    : Fabric{{&simulator}, config}, config_{std::move(config)} {
  const int L = config_.num_leaves;
  const int S = config_.num_spines;
  const int H = config_.hosts_per_leaf;
  const int M = config_.links_per_pair;
  if (L < 1 || S < 1 || H < 1 || M < 1) throw std::invalid_argument("bad topology shape");

  // Fabric dimension members.
  num_leaves_ = L;
  num_spines_ = S;
  hosts_per_leaf_ = H;
  max_hops_ = 4;  // host -> leaf -> spine -> leaf -> host

  for (int i = 0; i < L * H; ++i) add_host(0);
  for (int i = 0; i < L; ++i) add_switch(0, i, "leaf" + std::to_string(i));
  for (int i = 0; i < S; ++i) add_switch(0, i, "spine" + std::to_string(i));

  // Host <-> leaf links. Leaf ports [0, H) go down to hosts.
  for (int l = 0; l < L; ++l) {
    for (int h = 0; h < H; ++h) {
      const int host_id = l * H + h;
      host(host_id).attach_uplink(config_.port_config(config_.host_rate_bps), &leaf(l), h);
      const int p =
          leaf(l).add_port(config_.port_config(config_.host_rate_bps), &host(host_id), 0);
      assert(p == h);
      (void)p;
    }
  }
  // Leaf <-> spine links. Leaf ports [H, H + S*M) go up; spine ports
  // [0, L*M) go down. Asymmetric overrides apply to both directions;
  // rate 0 means the link is cut (paths through it are excluded).
  for (int l = 0; l < L; ++l) {
    for (int s = 0; s < S; ++s) {
      for (int k = 0; k < M; ++k) {
        const double rate = link_rate(l, s, k);
        const double effective = rate > 0 ? rate : config_.fabric_rate_bps;
        const int up =
            leaf(l).add_port(config_.port_config(effective), &spine(s), downlink_port_index(l, k));
        assert(up == uplink_port_index(s, k));
        leaf(l).port(up).is_fabric = true;
        add_link({l, up, L + s, downlink_port_index(l, k), effective});
      }
    }
  }
  for (int s = 0; s < S; ++s) {
    for (int l = 0; l < L; ++l) {
      for (int k = 0; k < M; ++k) {
        const double rate = link_rate(l, s, k);
        const double effective = rate > 0 ? rate : config_.fabric_rate_bps;
        const int down =
            spine(s).add_port(config_.port_config(effective), &leaf(l), uplink_port_index(s, k));
        assert(down == downlink_port_index(l, k));
        spine(s).port(down).is_fabric = true;
      }
    }
  }

  // Shared-memory buffering (optional): one Dynamic Threshold pool per
  // switch instead of static per-port carving.
  if (config_.shared_buffer_bytes > 0) {
    for (const auto& sw : switches())
      sw->use_shared_buffer(config_.shared_buffer_bytes, config_.dt_alpha);
  }

  // Enumerate usable paths per ordered leaf pair, one run each: cut links
  // and rate overrides make pairs' runs differ.
  for (int a = 0; a < L; ++a) {
    for (int b = 0; b < L; ++b) {
      const std::size_t first = paths_.size();
      if (a != b) {
        for (int s = 0; s < S; ++s) {
          for (int k = 0; k < M; ++k) {
            const double up_rate = link_rate(a, s, k);
            const double down_rate = link_rate(b, s, k);
            if (up_rate <= 0 || down_rate <= 0) continue;  // cut link
            paths_.push_back({s, k, std::min(up_rate, down_rate)});
          }
        }
        if (paths_.size() == first) {
          throw std::invalid_argument("leaf pair disconnected by overrides");
        }
      }
      add_pair(first, paths_.size() - first);
    }
  }

  bisection_bps_ = 0;
  for (int l = 0; l < L; ++l)
    for (int s = 0; s < S; ++s)
      for (int k = 0; k < M; ++k) bisection_bps_ += std::max(0.0, link_rate(l, s, k));
}

Route Topology::forward_route(int src_host, int dst_host, int path) const {
  return route(src_host, dst_host, path, dst_host);
}

Route Topology::reverse_route(int src_host, int dst_host, int path) const {
  return route(src_host, dst_host, path, src_host);
}

Route Topology::route(int src_host, int dst_host, int path, int to_host) const {
  Route r;
  const int src_leaf = leaf_of(src_host);
  const int dst_leaf = leaf_of(dst_host);
  if (src_leaf != dst_leaf) {
    const auto paths = paths_between_leaves(src_leaf, dst_leaf);
    check_path(path, paths.size());
    const FabricPath& p = paths[static_cast<std::size_t>(path)];
    r.push(static_cast<std::uint8_t>(uplink_port_index(p.spine, p.link_idx)));
    r.push(static_cast<std::uint8_t>(downlink_port_index(leaf_of(to_host), p.link_idx)));
  }
  r.push(static_cast<std::uint8_t>(local_index(to_host)));
  return r;
}

Port& Topology::leaf_uplink(int leaf_id, int spine_id, int k) {
  return leaf(leaf_id).port(uplink_port_index(spine_id, k));
}

Port& Topology::spine_downlink(int spine_id, int leaf_id, int k) {
  return spine(spine_id).port(downlink_port_index(leaf_id, k));
}

}  // namespace hermes::net
