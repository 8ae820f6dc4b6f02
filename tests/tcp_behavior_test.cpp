// Fine-grained TCP/DCTCP behaviour tests driving TcpSender with
// synthetic ACK streams: slow-start doubling, congestion-avoidance
// growth, fast-recovery arithmetic, and the receiver's reorder-hold
// timing boundary.

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

#include <deque>

#include "hermes/harness/scenario.hpp"
#include "hermes/lb/ecmp.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/sim/simulator.hpp"
#include "hermes/transport/tcp_receiver.hpp"
#include "hermes/transport/tcp_sender.hpp"

namespace hermes::transport {
namespace {

using sim::usec;

/// Harness around a bare TcpSender: captures transmissions, lets tests
/// acknowledge them selectively.
class SenderHarness {
 public:
  explicit SenderHarness(std::uint64_t flow_size, TcpConfig config = {})
      : topo_{simulator_, small()},
        ecmp_{topo_},
        sender_{simulator_, topo_,  ecmp_,
                config,     spec(flow_size), [this](net::Packet p) { wire_.push_back(std::move(p)); },
                nullptr} {
    sender_.start();
  }

  static net::TopologyConfig small() {
    net::TopologyConfig c;
    c.num_leaves = 2;
    c.num_spines = 1;
    c.hosts_per_leaf = 1;
    return c;
  }
  static FlowSpec spec(std::uint64_t size) {
    FlowSpec f;
    f.id = 1;
    f.src = 0;
    f.dst = 1;
    f.size = size;
    return f;
  }

  /// ACK cumulatively up to `upto` payload bytes.
  void ack_upto(std::uint64_t upto, bool ece = false) {
    net::Packet a;
    a.type = net::PacketType::kAck;
    a.flow_id = 1;
    a.ack = upto;
    a.ece = ece;
    sender_.on_ack(a);
  }
  /// Send one duplicate ACK at the current snd_una.
  void dup_ack() { ack_upto(sender_.snd_una()); }

  /// Pop everything currently on the "wire".
  std::vector<net::Packet> drain() {
    std::vector<net::Packet> out(wire_.begin(), wire_.end());
    wire_.clear();
    return out;
  }

  TcpSender& sender() { return sender_; }
  sim::Simulator& simulator() { return simulator_; }

 private:
  sim::Simulator simulator_{1};
  net::Topology topo_;
  lb::EcmpLb ecmp_;
  std::deque<net::Packet> wire_;
  TcpSender sender_;
};

TEST(TcpBehavior, InitialWindowIsTenSegments) {
  SenderHarness h{100'000'000};
  const auto burst = h.drain();
  ASSERT_EQ(burst.size(), 10u);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(burst[i].seq, i * 1460);
    EXPECT_EQ(burst[i].payload, 1460u);
    EXPECT_TRUE(burst[i].ect);
  }
}

TEST(TcpBehavior, SlowStartDoublesPerRound) {
  SenderHarness h{100'000'000};
  std::size_t window = h.drain().size();
  EXPECT_EQ(window, 10u);
  std::uint64_t acked = 0;
  for (int round = 0; round < 4; ++round) {
    acked += window * 1460;
    h.ack_upto(acked);  // one cumulative ACK per round
    const auto next = h.drain().size();
    // Cumulative ACK for W segments grows cwnd by W segments: doubling.
    EXPECT_EQ(next, 2 * window) << "round " << round;
    window = next;
  }
}

TEST(TcpBehavior, EcnCutShrinksWindowByAlphaHalf) {
  TcpConfig cfg;
  SenderHarness h{100'000'000, cfg};
  auto burst = h.drain();
  std::uint64_t acked = 0;
  // Grow a few rounds cleanly.
  for (int i = 0; i < 3; ++i) {
    acked += burst.size() * 1460;
    h.ack_upto(acked);
    burst = h.drain();
  }
  const double cwnd_before = h.sender().cwnd_bytes();
  // One fully-marked window: alpha jumps to g*1 and the window is cut.
  acked += burst.size() * 1460;
  h.ack_upto(acked, /*ece=*/true);
  EXPECT_GT(h.sender().dctcp_alpha(), 0.0);
  // Cut happens at the next window boundary; drive one more short round.
  const double alpha = h.sender().dctcp_alpha();
  EXPECT_LE(h.sender().cwnd_bytes(), cwnd_before * (1 - alpha / 2) + 2 * 1460 + cwnd_before);
}

TEST(TcpBehavior, ThreeDupAcksTriggerFastRetransmit) {
  SenderHarness h{100'000'000};
  h.drain();
  h.dup_ack();
  h.dup_ack();
  EXPECT_EQ(h.drain().size(), 0u);  // below threshold: nothing resent
  h.dup_ack();
  const auto rtx = h.drain();
  ASSERT_GE(rtx.size(), 1u);
  EXPECT_EQ(rtx[0].seq, 0u);  // the hole
  EXPECT_TRUE(rtx[0].retransmit);
  EXPECT_EQ(h.sender().record().fast_retransmits, 1u);
}

TEST(TcpBehavior, RecoveryExitRestoresSsthresh) {
  SenderHarness h{100'000'000};
  h.drain();
  const double cwnd_before = h.sender().cwnd_bytes();
  for (int i = 0; i < 3; ++i) h.dup_ack();
  h.drain();
  // Full ACK of everything outstanding exits recovery at ssthresh ~ half.
  h.ack_upto(10 * 1460);
  EXPECT_NEAR(h.sender().cwnd_bytes(), cwnd_before / 2, 1500.0);
}

TEST(TcpBehavior, NewRenoPartialAckRetransmitsNextHole) {
  SenderHarness h{100'000'000};
  h.drain();
  for (int i = 0; i < 3; ++i) h.dup_ack();
  (void)h.drain();  // first retransmission (seq 0)
  // Partial ACK: first hole filled, second hole at 2920 still missing.
  h.ack_upto(2920);
  const auto rtx = h.drain();
  bool resent_hole = false;
  for (const auto& p : rtx) resent_hole |= (p.seq == 2920 && p.retransmit);
  EXPECT_TRUE(resent_hole);
}

TEST(TcpBehavior, RtoResendsFromUnaAndResetsWindow) {
  SenderHarness h{100'000'000};
  h.drain();
  h.simulator().run_until(sim::msec(11));  // initial RTO = 10ms
  const auto rtx = h.drain();
  ASSERT_GE(rtx.size(), 1u);
  EXPECT_EQ(rtx[0].seq, 0u);
  EXPECT_NEAR(h.sender().cwnd_bytes(), 1460.0, 1.0);  // cwnd = 1 MSS
  EXPECT_EQ(h.sender().record().timeouts, 1u);
}

TEST(TcpBehavior, CongestionAvoidanceGrowsLinearly) {
  TcpConfig cfg;
  SenderHarness h{100'000'000, cfg};
  auto burst = h.drain();
  std::uint64_t acked = 0;
  // Force CA via an ECN cut first.
  for (int i = 0; i < 2; ++i) {
    acked += burst.size() * 1460;
    h.ack_upto(acked, true);
    burst = h.drain();
    if (burst.empty()) break;
  }
  const double cwnd0 = h.sender().cwnd_bytes();
  // One clean round: CA adds ~1 MSS per RTT.
  std::uint64_t outstanding = acked + static_cast<std::uint64_t>(cwnd0);
  h.ack_upto(outstanding);
  h.drain();
  EXPECT_LT(h.sender().cwnd_bytes(), cwnd0 + 2 * 1460);
}

// --- receiver reorder-hold boundary ----------------------------------------

TEST(ReorderHold, AckDeferredExactlyHoldTime) {
  sim::Simulator simulator{1};
  net::TopologyConfig tc;
  tc.num_leaves = 2;
  tc.num_spines = 1;
  tc.hosts_per_leaf = 1;
  net::Topology topo{simulator, tc};
  lb::EcmpLb ecmp{topo};
  TcpConfig cfg;
  cfg.reorder_buffer = true;
  cfg.reorder_hold = usec(300);

  std::vector<std::pair<sim::SimTime, net::Packet>> acks;
  TcpReceiver recv{simulator, topo,
                   ecmp,      cfg,
                   1,         0,
                   1,         [&](net::Packet p) { acks.emplace_back(simulator.now(), p); }};

  net::Packet ooo;
  ooo.flow_id = 1;
  ooo.src = 0;
  ooo.dst = 1;
  ooo.seq = 1460;  // hole at [0, 1460)
  ooo.payload = 1460;
  ooo.path_id = 0;
  recv.on_data(ooo);
  EXPECT_TRUE(acks.empty());  // held, no immediate dupACK

  simulator.run_until(usec(1000));
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].first, usec(300));  // exactly the hold time
  EXPECT_EQ(acks[0].second.ack, 0u);    // still a duplicate ACK (hole open)
}

TEST(ReorderHold, GapFilledWithinHoldProducesCumulativeAck) {
  sim::Simulator simulator{1};
  net::TopologyConfig tc;
  tc.num_leaves = 2;
  tc.num_spines = 1;
  tc.hosts_per_leaf = 1;
  net::Topology topo{simulator, tc};
  lb::EcmpLb ecmp{topo};
  TcpConfig cfg;
  cfg.reorder_buffer = true;
  cfg.reorder_hold = usec(300);

  std::vector<net::Packet> acks;
  TcpReceiver recv{simulator, topo, ecmp, cfg, 1, 0, 1,
                   [&](net::Packet p) { acks.push_back(p); }};

  net::Packet ooo;
  ooo.flow_id = 1;
  ooo.seq = 1460;
  ooo.payload = 1460;
  ooo.src = 0;
  ooo.dst = 1;
  ooo.path_id = 0;
  recv.on_data(ooo);

  simulator.run_until(usec(100));
  net::Packet fill = ooo;
  fill.seq = 0;
  recv.on_data(fill);  // gap filled before the hold expired
  simulator.run_until(usec(1000));
  ASSERT_GE(acks.size(), 2u);
  // The in-order arrival ACKs cumulatively; the deferred ACK is also
  // cumulative — no duplicate ACK was ever emitted.
  for (const auto& a : acks) EXPECT_EQ(a.ack, 2920u);
}

}  // namespace
}  // namespace hermes::transport
