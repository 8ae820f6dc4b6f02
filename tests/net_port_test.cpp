// Unit tests for Port: drop-tail queueing, ECN step marking, strict
// priority, serialization/propagation timing, stats, and the DRE.

#include <cstdint>
#include <gtest/gtest.h>

#include <vector>

#include "hermes/engine/rate.hpp"
#include "hermes/net/port.hpp"
#include "hermes/sim/simulator.hpp"

namespace hermes::net {
namespace {

using sim::msec;
using sim::usec;

/// Test peer that records delivered packets and arrival times. Devices
/// receive arena handles and own the slot: the sink moves the packet out
/// and frees it, like a host delivery would.
class SinkDevice : public Device {
 public:
  explicit SinkDevice(PacketArena& arena) : arena_{arena} {}
  void receive(PacketHandle h, int in_port) override {
    packets.push_back(std::move(arena_[h]));
    arena_.free(h);
    in_ports.push_back(in_port);
    times.push_back(now ? *now : sim::SimTime{});
  }
  std::vector<Packet> packets;
  std::vector<int> in_ports;
  std::vector<sim::SimTime> times;
  const sim::SimTime* now = nullptr;

 private:
  PacketArena& arena_;
};

Packet make_packet(std::uint32_t size, bool ect = false, std::int8_t prio = 0) {
  static std::uint64_t next_id = 1;
  Packet p;
  p.id = next_id++;
  p.size = size;
  p.payload = size > kHeaderBytes ? size - kHeaderBytes : 0;
  p.ect = ect;
  p.priority = prio;
  return p;
}

class PortTest : public ::testing::Test {
 protected:
  PortConfig config(double rate_bps = 1e9) {
    PortConfig c;
    c.rate_bps = rate_bps;
    c.prop_delay = usec(2);
    c.queue_capacity_bytes = 10'000;
    c.ecn_threshold_bytes = 4'000;
    return c;
  }

  sim::Simulator simulator{1};
  PacketArena arena;
  SinkDevice sink{arena};
};

TEST_F(PortTest, DeliversPacketToPeerPort) {
  Port port{simulator, arena, "p", config(), &sink, 7};
  port.send(make_packet(1500));
  simulator.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.in_ports[0], 7);
}

TEST_F(PortTest, SerializationPlusPropagationTiming) {
  Port port{simulator, arena, "p", config(1e9), &sink, 0};
  sink.now = nullptr;
  bool delivered = false;
  sim::SimTime arrival{};
  struct NothingDelivered {
    const SinkDevice& sink;
    void check() { EXPECT_TRUE(sink.packets.empty()); }
  };
  NothingDelivered at_13us{sink};
  // 1500B at 1Gbps = 12us serialization + 2us propagation = 14us.
  port.send(make_packet(1500));
  simulator.after<&NothingDelivered::check>(usec(13), &at_13us);
  simulator.run();
  (void)delivered;
  (void)arrival;
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(simulator.now(), usec(14));
}

TEST_F(PortTest, BackToBackPacketsPipeline) {
  Port port{simulator, arena, "p", config(1e9), &sink, 0};
  for (int i = 0; i < 3; ++i) port.send(make_packet(1500));
  simulator.run();
  // Three serializations (36us) + one propagation (2us) for the last.
  EXPECT_EQ(simulator.now(), usec(38));
  EXPECT_EQ(sink.packets.size(), 3u);
}

TEST_F(PortTest, DropsWhenBufferFull) {
  Port port{simulator, arena, "p", config(), &sink, 0};
  // Capacity 10KB: first 6 x 1500 = 9000 fit, 7th overflows while the
  // link is still serializing (first tx already removed from backlog).
  int drops_seen = 0;
  port.on_drop = [&](const Packet&) { ++drops_seen; };
  for (int i = 0; i < 8; ++i) port.send(make_packet(1500));
  simulator.run();
  EXPECT_GT(port.stats().drops, 0u);
  EXPECT_EQ(port.stats().drops, static_cast<std::uint64_t>(drops_seen));
  EXPECT_EQ(sink.packets.size(), 8u - port.stats().drops);
}

TEST_F(PortTest, EcnMarksAboveThreshold) {
  Port port{simulator, arena, "p", config(), &sink, 0};
  // Threshold 4000B. First packets enqueue below it; once the backlog
  // crosses it, ECT packets get CE.
  for (int i = 0; i < 6; ++i) port.send(make_packet(1500, /*ect=*/true));
  simulator.run();
  int marked = 0;
  for (const auto& p : sink.packets) marked += p.ce ? 1 : 0;
  EXPECT_GT(marked, 0);
  EXPECT_LT(marked, 6);
  EXPECT_EQ(port.stats().ecn_marks, static_cast<std::uint64_t>(marked));
}

TEST_F(PortTest, NoEcnMarkWithoutEct) {
  Port port{simulator, arena, "p", config(), &sink, 0};
  for (int i = 0; i < 6; ++i) port.send(make_packet(1500, /*ect=*/false));
  simulator.run();
  for (const auto& p : sink.packets) EXPECT_FALSE(p.ce);
  EXPECT_EQ(port.stats().ecn_marks, 0u);
}

TEST_F(PortTest, EcnDisabledNeverMarks) {
  auto c = config();
  c.ecn_enabled = false;
  Port port{simulator, arena, "p", c, &sink, 0};
  for (int i = 0; i < 6; ++i) port.send(make_packet(1500, true));
  simulator.run();
  for (const auto& p : sink.packets) EXPECT_FALSE(p.ce);
}

TEST_F(PortTest, HighPriorityOvertakesLowPriority) {
  Port port{simulator, arena, "p", config(1e9), &sink, 0};
  port.send(make_packet(1500, false, 0));  // starts transmitting
  port.send(make_packet(1500, false, 0));  // queued low
  port.send(make_packet(64, false, 1));    // queued high, must overtake
  simulator.run();
  ASSERT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(sink.packets[1].size, 64u);  // the high-priority one is second
}

TEST_F(PortTest, StatsCountBytesAndPackets) {
  Port port{simulator, arena, "p", config(), &sink, 0};
  port.send(make_packet(1000));
  port.send(make_packet(500));
  simulator.run();
  EXPECT_EQ(port.stats().tx_packets, 2u);
  EXPECT_EQ(port.stats().tx_bytes, 1500u);
}

TEST_F(PortTest, BacklogTracksQueueOnly) {
  Port port{simulator, arena, "p", config(1e9), &sink, 0};
  port.send(make_packet(1500));  // in transmission, not in backlog
  port.send(make_packet(1500));
  port.send(make_packet(1500));
  EXPECT_EQ(port.backlog_bytes(), 3000u);
  simulator.run();
  EXPECT_EQ(port.backlog_bytes(), 0u);
}

TEST_F(PortTest, TxTimeMatchesRate) {
  Port port{simulator, arena, "p", config(10e9), &sink, 0};
  EXPECT_EQ(port.tx_time(1500), sim::SimTime::from_seconds(1500 * 8.0 / 10e9));
}

TEST(DreTest, RateTracksSteadyInput) {
  engine::Dre<engine::kLinkDre> dre;
  sim::SimTime t{};
  // 1500B every 1.2us == 10Gbps.
  for (int i = 0; i < 2000; ++i) {
    dre.add(1500, t.ns());
    t += sim::nsec(1200);
  }
  EXPECT_NEAR(dre.rate_bps(t.ns()), 10e9, 1.5e9);
}

TEST(DreTest, DecaysToZeroWhenIdle) {
  engine::Dre<engine::kLinkDre> dre;
  dre.add(150'000, 0);
  EXPECT_GT(dre.rate_bps(usec(1).ns()), 0.0);
  EXPECT_LT(dre.rate_bps(msec(50).ns()), 1e3);
}

TEST(DreTest, QuantizedSaturatesAtSeven) {
  engine::Dre<engine::kLinkDre> dre;
  sim::SimTime t{};
  for (int i = 0; i < 5000; ++i) {
    dre.add(1500, t.ns());
    t += sim::nsec(1200);
  }
  EXPECT_EQ(dre_quantized(dre, 10e9, t), 7);  // fully utilized
  EXPECT_EQ(dre_quantized(dre, 1e12, t), 0);  // negligible on a huge link
}

TEST(DreTest, UtilizationProportionalToRate) {
  engine::Dre<engine::kLinkDre> slow, fast;
  sim::SimTime t{};
  for (int i = 0; i < 4000; ++i) {
    fast.add(1500, t.ns());
    if (i % 2 == 0) slow.add(1500, t.ns());
    t += sim::nsec(1200);
  }
  EXPECT_NEAR(dre_utilization(slow, 10e9, t) / dre_utilization(fast, 10e9, t), 0.5, 0.1);
}

}  // namespace
}  // namespace hermes::net
