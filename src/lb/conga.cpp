#include "hermes/lb/conga.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace hermes::lb {

CongaLb::CongaLb(sim::Simulator& simulator, net::Topology& topo, CongaConfig config)
    : simulator_{simulator},
      topo_{topo},
      config_{config},
      rng_{simulator.rng_seed(0xC09624)},
      num_leaves_{topo.config().num_leaves} {
  to_leaf_.resize(static_cast<std::size_t>(num_leaves_) * num_leaves_);
  from_leaf_.resize(static_cast<std::size_t>(num_leaves_) * num_leaves_);
}

std::uint8_t CongaLb::remote_metric(const Entry& e) const {
  if (!e.valid) return 0;
  // Aged-out metrics are assumed to describe an empty path.
  if (simulator_.now() - e.last > config_.metric_aging) return 0;
  return e.metric;
}

std::uint8_t CongaLb::path_metric(int src_leaf, int dst_leaf, int local_index) {
  const auto& paths = topo_.paths_between_leaves(src_leaf, dst_leaf);
  const net::FabricPath& p = paths[local_index];
  const std::uint8_t local =
      topo_.leaf_uplink(src_leaf, p.spine, p.link_idx).conga_metric();
  PairTable& t = to_leaf(src_leaf, dst_leaf);
  ensure_size(t, paths.size());
  return std::max(local, remote_metric(t.entries[local_index]));
}

int CongaLb::select_path(FlowCtx& flow, const net::Packet&) {
  if (flow.intra_rack()) return -1;
  const sim::SimTime now = simulator_.now();
  const bool new_flowlet =
      !flow.has_sent || (now - flow.last_send) > config_.flowlet_timeout;
  if (!new_flowlet && flow.current_path >= 0) return flow.current_path;

  const auto& paths = topo_.paths_between_leaves(flow.src_leaf, flow.dst_leaf);
  PairTable& t = to_leaf(flow.src_leaf, flow.dst_leaf);
  ensure_size(t, paths.size());

  int best = -1;
  std::uint8_t best_metric = 255;
  int ties = 0;
  bool current_is_best = false;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const net::FabricPath& p = paths[i];
    const std::uint8_t local =
        topo_.leaf_uplink(flow.src_leaf, p.spine, p.link_idx).conga_metric();
    const std::uint8_t m = std::max(local, remote_metric(t.entries[i]));
    if (m < best_metric) {
      best_metric = m;
      best = static_cast<int>(i);
      ties = 1;
      current_is_best = (static_cast<int>(i) == flow.current_path);
    } else if (m == best_metric) {
      ++ties;
      if (static_cast<int>(i) == flow.current_path) current_is_best = true;
      // Reservoir-sample among ties for an unbiased random choice.
      if (rng_.next(static_cast<std::uint64_t>(ties)) == 0) best = static_cast<int>(i);
    }
  }
  // CONGA keeps the flowlet where it is when the current path ties the best
  // (avoids gratuitous moves).
  if (current_is_best) {
    const std::uint8_t cur_m = path_metric(flow.src_leaf, flow.dst_leaf, flow.current_path);
    if (cur_m == best_metric) best = flow.current_path;
  }
  return best;
}

void CongaLb::on_data_arrival(const net::Packet& data) {
  const int src_leaf = topo_.leaf_of(data.src);
  const int dst_leaf = topo_.leaf_of(data.dst);
  if (src_leaf == dst_leaf) return;
  PairTable& t = from_leaf(dst_leaf, src_leaf);
  ensure_size(t, topo_.paths_between_leaves(src_leaf, dst_leaf).size());
  // The path index is CONGA's lbtag.
  if (data.path_id >= 0 && static_cast<std::size_t>(data.path_id) < t.entries.size()) {
    t.entries[static_cast<std::size_t>(data.path_id)] =
        Entry{data.conga_ce, simulator_.now(), true};
  }
}

void CongaLb::decorate_ack(const net::Packet& data, net::Packet& ack) {
  const int src_leaf = topo_.leaf_of(data.src);
  const int dst_leaf = topo_.leaf_of(data.dst);
  if (src_leaf == dst_leaf) return;
  PairTable& t = from_leaf(dst_leaf, src_leaf);
  if (t.entries.empty()) return;
  // One (lbtag, metric) pair per reverse packet, cycling over known
  // paths. Entries that have not been refreshed by forward traffic
  // within the aging window are not fed back: re-sending them would
  // reset their timestamp at the source and defeat aging. This is what
  // leaves the source blind to the alternative path in Example 4.
  for (std::size_t tries = 0; tries < t.entries.size(); ++tries) {
    const std::size_t i = t.fb_cursor;
    t.fb_cursor = (t.fb_cursor + 1) % t.entries.size();
    if (t.entries[i].valid &&
        simulator_.now() - t.entries[i].last <= config_.metric_aging) {
      ack.conga_fb_valid = true;
      ack.conga_fb_lbtag = static_cast<std::uint8_t>(i);
      ack.conga_fb_metric = t.entries[i].metric;
      return;
    }
  }
}

void CongaLb::on_ack(FlowCtx& flow, const net::Packet& ack) {
  if (!ack.conga_fb_valid || flow.intra_rack()) return;
  PairTable& t = to_leaf(flow.src_leaf, flow.dst_leaf);
  ensure_size(t, topo_.paths_between_leaves(flow.src_leaf, flow.dst_leaf).size());
  if (ack.conga_fb_lbtag < t.entries.size()) {
    t.entries[ack.conga_fb_lbtag] = Entry{ack.conga_fb_metric, simulator_.now(), true};
  }
}

}  // namespace hermes::lb
