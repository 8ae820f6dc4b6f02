// Parameterized sweeps over Hermes's decision algorithms: the full
// Table 5 truth table as a (RTT-level x ECN-level) grid, gate boundary
// behaviour for Algorithm 2, and DCTCP window arithmetic under swept
// marking patterns.

#include <cstdint>
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <tuple>

#include "hermes/engine/config.hpp"
#include "hermes/engine/path_state.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/lb/hermes.hpp"
#include "hermes/lb/ecmp.hpp"
#include "hermes/transport/tcp_sender.hpp"

namespace hermes::lb {
namespace {

using sim::usec;

engine::Config sweep_config() {
  engine::Config c;
  c.t_ecn = 0.40;
  c.t_rtt_low = engine::usec(60);
  c.t_rtt_high = engine::usec(180);
  return c;
}

enum class Level { kLow, kMid, kHigh };

sim::SimTime rtt_for(Level l) {
  switch (l) {
    case Level::kLow: return usec(30);
    case Level::kMid: return usec(120);
    case Level::kHigh: return usec(400);
  }
  return {};
}
double ecn_for(Level l) {
  switch (l) {
    case Level::kLow: return 0.05;
    case Level::kMid: return 0.40;  // not used for ECN (binary threshold)
    case Level::kHigh: return 0.95;
  }
  return 0;
}
const char* name_of(Level l) {
  switch (l) {
    case Level::kLow: return "Low";
    case Level::kMid: return "Mid";
    case Level::kHigh: return "High";
  }
  return "?";
}

/// Expected characterization per Table 5 / Algorithm 1.
engine::PathType expected(Level ecn, Level rtt) {
  if (ecn == Level::kLow && rtt == Level::kLow) return engine::PathType::kGood;
  if (ecn == Level::kHigh && rtt == Level::kHigh) return engine::PathType::kCongested;
  return engine::PathType::kGray;
}

class Table5Sweep : public ::testing::TestWithParam<std::tuple<Level, Level>> {};

TEST_P(Table5Sweep, CharacterizationMatchesTable5) {
  const auto [ecn, rtt] = GetParam();
  const auto cfg = sweep_config();
  engine::PathState st;
  int marked = 0;
  for (int i = 0; i < 500; ++i) {
    const bool mark = marked < ecn_for(ecn) * (i + 1);
    if (mark) ++marked;
    st.add_sample(rtt_for(rtt).ns(), mark);
  }
  EXPECT_EQ(st.characterize(cfg), expected(ecn, rtt))
      << "ecn=" << name_of(ecn) << " rtt=" << name_of(rtt);
}

std::string level_name(const ::testing::TestParamInfo<std::tuple<Level, Level>>& info) {
  return std::string("Ecn") + name_of(std::get<0>(info.param)) + "Rtt" +
         name_of(std::get<1>(info.param));
}

// ECN is a binary signal in Algorithm 1 (fraction above/below T_ECN), so
// the grid covers the two ECN levels against all three RTT levels —
// exactly Table 5's six rows.
INSTANTIATE_TEST_SUITE_P(
    Grid, Table5Sweep,
    ::testing::Combine(::testing::Values(Level::kLow, Level::kHigh),
                       ::testing::Values(Level::kLow, Level::kMid, Level::kHigh)),
    level_name);

// --- Algorithm 2 gate boundaries -----------------------------------------

class GateSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GateSweep, SentSizeGateIsStrict) {
  // Flows reroute only when s_sent strictly exceeds S.
  sim::Simulator simulator{1};
  net::TopologyConfig tc;
  tc.num_leaves = 2;
  tc.num_spines = 2;
  tc.hosts_per_leaf = 2;
  net::Topology topo{simulator, tc};
  auto cfg = HermesConfig::defaults_for(topo);
  cfg.probing_enabled = false;
  HermesLb h{simulator, topo, cfg};

  // Path 0 congested, path 1 notably-better good.
  auto drive = [&](int idx, sim::SimTime rtt, double frac) {
    auto& st = h.path_state(0, 1, idx);
    int marked = 0;
    for (int i = 0; i < 400; ++i) {
      const bool m = marked < frac * (i + 1);
      if (m) ++marked;
      st.add_sample(rtt.ns(), m);
    }
  };
  drive(0, cfg.t_rtt_high + usec(200), 0.9);
  drive(1, usec(25), 0.0);

  FlowCtx f;
  f.flow_id = 1;
  f.src = 0;
  f.dst = 2;
  f.src_leaf = 0;
  f.dst_leaf = 1;
  f.current_path = topo.paths_between_leaves(0, 1)[0].id;
  f.has_sent = true;
  f.bytes_sent = GetParam();

  net::Packet pkt;
  pkt.size = 1500;
  const int chosen = h.select_path(f, pkt);
  const bool rerouted = chosen != f.current_path;
  EXPECT_EQ(rerouted, GetParam() > cfg.sent_threshold_bytes)
      << "bytes_sent=" << GetParam() << " S=" << cfg.sent_threshold_bytes;
}

INSTANTIATE_TEST_SUITE_P(AroundS, GateSweep,
                         ::testing::Values(0u, 1024u, 614'399u, 614'400u, 614'401u,
                                           10'000'000u));

}  // namespace
}  // namespace hermes::lb

// --- DCTCP window arithmetic sweep ---------------------------------------

namespace hermes::transport {
namespace {

/// Drives a TcpSender directly with a synthetic ACK stream whose marking
/// fraction is exactly F: DCTCP's alpha must converge to F (the EWMA
/// fixed point of the per-window marked fraction).
class MarkSweep : public ::testing::TestWithParam<double> {};

TEST_P(MarkSweep, AlphaConvergesToMarkingFraction) {
  const double frac = GetParam();
  sim::Simulator simulator{1};
  net::TopologyConfig tc;
  tc.num_leaves = 2;
  tc.num_spines = 1;
  tc.hosts_per_leaf = 1;
  net::Topology topo{simulator, tc};
  lb::EcmpLb ecmp{topo};

  std::deque<net::Packet> wire;
  FlowSpec spec;
  spec.id = 1;
  spec.src = 0;
  spec.dst = 1;
  spec.size = 1'000'000'000;
  TcpSender sender{simulator, topo,
                   ecmp,      TcpConfig{},
                   spec,      [&](net::Packet p) { wire.push_back(std::move(p)); },
                   nullptr};
  sender.start();

  int acked = 0;
  int marked = 0;
  for (int step = 0; step < 30'000 && !wire.empty(); ++step) {
    net::Packet data = wire.front();
    wire.pop_front();
    net::Packet ack;
    ack.type = net::PacketType::kAck;
    ack.flow_id = spec.id;
    ack.ack = data.seq + data.payload;
    ack.path_id = data.path_id;
    const bool mark = marked < frac * (acked + 1);
    if (mark) ++marked;
    ++acked;
    ack.ece = mark;
    sender.on_ack(ack);
  }
  ASSERT_GT(acked, 1000);
  EXPECT_NEAR(sender.dctcp_alpha(), frac, 0.15) << "F=" << frac;
}

INSTANTIATE_TEST_SUITE_P(Fracs, MarkSweep, ::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0));

}  // namespace
}  // namespace hermes::transport
