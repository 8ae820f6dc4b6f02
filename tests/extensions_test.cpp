// Tests for the library extensions: WCMP, CSV export, the per-port packet
// trace log (a flight recorder attached to a port), and shared-buffer (Dynamic
// Threshold) switches.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include <map>

#include "hermes/harness/scenario.hpp"
#include "hermes/lb/wcmp.hpp"
#include "hermes/net/buffer_pool.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/records.hpp"
#include "hermes/obs/trace_io.hpp"
#include "hermes/stats/csv.hpp"
#include "hermes/workload/flow_gen.hpp"

namespace hermes {
namespace {

using sim::msec;
using sim::usec;

// --- WCMP -----------------------------------------------------------------

TEST(Wcmp, StablePerFlow) {
  sim::Simulator simulator{1};
  net::TopologyConfig tc;
  tc.num_leaves = 2;
  tc.num_spines = 4;
  tc.hosts_per_leaf = 2;
  net::Topology topo{simulator, tc};
  lb::WcmpLb lb{topo};
  lb::FlowCtx f;
  f.flow_id = 3;
  f.src = 0;
  f.dst = 2;
  f.src_leaf = 0;
  f.dst_leaf = 1;
  const int first = lb.select_path(f, net::Packet{});
  for (int i = 0; i < 30; ++i) EXPECT_EQ(lb.select_path(f, net::Packet{}), first);
}

TEST(Wcmp, SplitsProportionallyToCapacity) {
  sim::Simulator simulator{1};
  net::TopologyConfig tc;
  tc.num_leaves = 2;
  tc.num_spines = 2;
  tc.hosts_per_leaf = 2;
  tc.fabric_overrides[{0, 0, 0}] = 2e9;  // path 0 is 2G, path 1 is 10G
  tc.fabric_overrides[{1, 0, 0}] = 2e9;
  net::Topology topo{simulator, tc};
  lb::WcmpLb lb{topo};
  std::map<int, int> counts;
  const int n = 30'000;
  for (int i = 0; i < n; ++i) {
    lb::FlowCtx f;
    f.flow_id = static_cast<std::uint64_t>(i);
    f.src = 0;
    f.dst = 2;
    f.src_leaf = 0;
    f.dst_leaf = 1;
    ++counts[lb.select_path(f, net::Packet{})];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 2.0 / 12.0, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 10.0 / 12.0, 0.01);
}

TEST(Wcmp, EqualCapacitiesBehaveLikeEcmp) {
  sim::Simulator simulator{1};
  net::TopologyConfig tc;
  tc.num_leaves = 2;
  tc.num_spines = 4;
  tc.hosts_per_leaf = 2;
  net::Topology topo{simulator, tc};
  lb::WcmpLb lb{topo};
  std::map<int, int> counts;
  const int n = 40'000;
  for (int i = 0; i < n; ++i) {
    lb::FlowCtx f;
    f.flow_id = static_cast<std::uint64_t>(i);
    f.src = 0;
    f.dst = 2;
    f.src_leaf = 0;
    f.dst_leaf = 1;
    ++counts[lb.select_path(f, net::Packet{})];
  }
  for (const auto& [path, c] : counts)
    EXPECT_NEAR(c / static_cast<double>(n), 0.25, 0.01);
}

TEST(Wcmp, EndToEndAsymmetricBeatsEcmp) {
  harness::ScenarioConfig cfg;
  cfg.topo.num_leaves = 2;
  cfg.topo.num_spines = 4;
  cfg.topo.hosts_per_leaf = 4;
  cfg.topo.fabric_overrides[{0, 0, 0}] = 2e9;
  cfg.topo.fabric_overrides[{1, 0, 0}] = 2e9;
  auto run = [&](harness::Scheme scheme) {
    auto c = cfg;
    c.scheme = scheme;
    harness::Scenario s{c};
    workload::TrafficConfig tcfg{.load = 0.6, .num_flows = 250, .seed = 6};
    s.add_flows(workload::generate_poisson_traffic(s.topology(),
                                                   workload::SizeDist::web_search(), tcfg));
    return s.run().overall().mean_us;
  };
  EXPECT_LT(run(harness::Scheme::kWcmp), run(harness::Scheme::kEcmp));
}

// --- CSV ------------------------------------------------------------------

TEST(Csv, PerFlowTable) {
  stats::FctCollector c;
  transport::FlowRecord r;
  r.id = 7;
  r.size = 1000;
  r.start = usec(5);
  r.end = usec(105);
  r.finished = true;
  r.timeouts = 1;
  r.reroutes = 2;
  c.add(r);
  const std::string csv = stats::to_csv(c);
  EXPECT_NE(csv.find("id,size_bytes"), std::string::npos);
  EXPECT_NE(csv.find("7,1000,5.000,100.000,1,1,"), std::string::npos);
  // header + 1 row = 2 lines
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(Csv, SummaryRow) {
  stats::FctSummary s;
  s.count = 3;
  s.mean_us = 10.5;
  s.p99_us = 20.25;
  const auto row = stats::summary_csv_row("all", s);
  EXPECT_NE(row.find("all,3,10.500"), std::string::npos);
  EXPECT_NE(row.find("20.250"), std::string::npos);
}

TEST(Csv, WriteFileRoundTrip) {
  const std::string path = "/tmp/hermes_csv_test.csv";
  ASSERT_TRUE(stats::write_file(path, "a,b\n1,2\n"));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  EXPECT_STREQ(buf, "a,b\n1,2\n");
  std::remove(path.c_str());
}

// --- Per-port packet trace log (a FlightRecorder on the port) ---------------

std::size_t count_event(const std::vector<obs::TraceRecord>& recs, obs::PacketEvent ev) {
  std::size_t n = 0;
  for (const obs::TraceRecord& r : recs) {
    if (r.kind == obs::RecordKind::kPacket && r.u.packet.event == static_cast<std::uint8_t>(ev)) {
      ++n;
    }
  }
  return n;
}

class NullDev : public net::Device {
 public:
  explicit NullDev(net::PacketArena& a) : arena_{a} {}
  void receive(net::PacketHandle h, int) override { arena_.free(h); }

 private:
  net::PacketArena& arena_;
};

TEST(TraceLogTest, RecordsLifecycleOfEveryPacket) {
  harness::ScenarioConfig cfg;
  cfg.topo.num_leaves = 2;
  cfg.topo.num_spines = 1;
  cfg.topo.hosts_per_leaf = 1;
  harness::Scenario s{cfg};
  obs::FlightRecorder rec;
  s.topology().host(0).nic().set_recorder(&rec);
  const auto id = s.add_flow(0, 1, 100'000, usec(0));
  s.run();
  const std::vector<obs::TraceRecord> recs = rec.snapshot();
  // Every data packet was enqueued and transmitted at the NIC.
  EXPECT_EQ(count_event(recs, obs::PacketEvent::kEnqueue),
            count_event(recs, obs::PacketEvent::kTransmit));
  EXPECT_GE(count_event(recs, obs::PacketEvent::kEnqueue), 100'000u / 1460u);
  EXPECT_EQ(count_event(recs, obs::PacketEvent::kDrop), 0u);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].flow_id, id);  // only this flow ran
    if (i > 0) {
      EXPECT_GE(recs[i].time_ns, recs[i - 1].time_ns);
    }
  }
}

TEST(TraceLogTest, DropsAreRecorded) {
  sim::Simulator simulator{1};
  net::PortConfig pc;
  pc.rate_bps = 1e9;
  pc.queue_capacity_bytes = 3'000;
  net::PacketArena arena;
  NullDev dev{arena};
  net::Port port{simulator, arena, "leaf9:p3", pc, &dev, 0};
  obs::FlightRecorder rec;
  port.set_recorder(&rec);
  for (int i = 0; i < 10; ++i) {
    net::Packet p;
    p.id = 40 + static_cast<std::uint64_t>(i);
    p.size = 1500;
    port.send(std::move(p));
  }
  simulator.run();
  const std::vector<obs::TraceRecord> recs = rec.snapshot();
  const std::size_t drops = count_event(recs, obs::PacketEvent::kDrop);
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(drops + count_event(recs, obs::PacketEvent::kEnqueue), 10u);
  // The first three packets fit (one on the wire, two queued); the fourth
  // is the first drop, and its record names the port and the packet.
  const auto first_drop =
      std::find_if(recs.begin(), recs.end(), [](const obs::TraceRecord& r) {
        return r.u.packet.event == static_cast<std::uint8_t>(obs::PacketEvent::kDrop);
      });
  ASSERT_NE(first_drop, recs.end());
  EXPECT_EQ(rec.names().name(first_drop->name), "leaf9:p3");
  EXPECT_EQ(first_drop->u.packet.packet_id, 43u);
}

// hermestrace renders a dumped trace as text from the record's event, the
// resolved port name and the packet and flow ids; check a dump carries all
// four for one enqueued packet.
TEST(TraceLogTest, TextRenderingContainsEvents) {
  sim::Simulator simulator{1};
  net::PortConfig pc;
  net::PacketArena arena;
  NullDev dev{arena};
  net::Port port{simulator, arena, "leaf9:p3", pc, &dev, 0};
  obs::FlightRecorder rec;
  port.set_recorder(&rec);
  net::Packet p;
  p.id = 42;
  p.flow_id = 9;
  p.size = 1500;
  port.send(std::move(p));
  simulator.run();
  const std::string path = testing::TempDir() + "extensions_port_trace.htrc";
  ASSERT_TRUE(obs::write_trace(path, rec));
  obs::LoadedTrace t;
  std::string err;
  ASSERT_TRUE(obs::read_trace(path, t, &err)) << err;
  std::remove(path.c_str());
  const auto enq = std::find_if(t.records.begin(), t.records.end(), [](const obs::TraceRecord& r) {
    return r.kind == obs::RecordKind::kPacket &&
           r.u.packet.event == static_cast<std::uint8_t>(obs::PacketEvent::kEnqueue);
  });
  ASSERT_NE(enq, t.records.end());
  EXPECT_STREQ(obs::to_string(static_cast<obs::PacketEvent>(enq->u.packet.event)), "ENQ");
  EXPECT_EQ(t.name(enq->name), "leaf9:p3");
  EXPECT_EQ(enq->u.packet.packet_id, 42u);
  EXPECT_EQ(enq->flow_id, 9u);
}

// --- Dynamic Threshold shared buffer ---------------------------------------

TEST(DynamicThreshold, AdmitsUpToAlphaTimesFree) {
  net::DynamicThresholdPool pool{100'000, 1.0};
  // Empty pool: limit = 100KB; a 50KB backlog + 10KB packet fits.
  EXPECT_TRUE(pool.try_admit(10'000, 50'000));
  EXPECT_EQ(pool.used(), 10'000u);
  // Now free = 90KB: a port with 85KB backlog cannot take 10KB more.
  EXPECT_FALSE(pool.try_admit(10'000, 85'000));
}

TEST(DynamicThreshold, ReleaseReturnsCapacity) {
  net::DynamicThresholdPool pool{10'000, 1.0};
  EXPECT_TRUE(pool.try_admit(8'000, 0));
  EXPECT_FALSE(pool.try_admit(8'000, 0));  // only 2KB free, alpha*2K < 8K
  pool.release(8'000);
  EXPECT_TRUE(pool.try_admit(8'000, 0));
}

TEST(DynamicThreshold, SmallAlphaLimitsPerPortShare) {
  net::DynamicThresholdPool pool{100'000, 0.25};
  // limit = 0.25 * 100KB = 25KB for an empty pool.
  EXPECT_TRUE(pool.try_admit(20'000, 0));
  EXPECT_FALSE(pool.try_admit(20'000, 20'000));  // would exceed the share
}

TEST(DynamicThreshold, SharedBufferAbsorbsIncastBetterThanStatic) {
  auto run = [](bool shared) {
    harness::ScenarioConfig cfg;
    cfg.topo.num_leaves = 2;
    cfg.topo.num_spines = 2;
    cfg.topo.hosts_per_leaf = 16;
    if (shared) {
      // Same total memory as 20 static ports, pooled.
      cfg.topo.shared_buffer_bytes = 20ull * cfg.topo.queue_bytes_for(10e9);
      cfg.topo.dt_alpha = 1.0;
    }
    harness::Scenario s{cfg};
    // 24-to-1 incast into host 0.
    for (int i = 0; i < 24; ++i) s.add_flow(16 + i % 16, 0, 512 * 1024, sim::usec(0));
    auto fct = s.run();
    return fct;
  };
  auto static_fct = run(false);
  auto shared_fct = run(true);
  EXPECT_EQ(shared_fct.unfinished_flows(), 0u);
  // The pooled buffer absorbs the synchronized burst with fewer (or equal)
  // timeouts and no worse tail.
  EXPECT_LE(shared_fct.total_timeouts(), static_fct.total_timeouts());
}

TEST(DynamicThreshold, TopologyWiresPoolToAllSwitchPorts) {
  sim::Simulator simulator{1};
  net::TopologyConfig tc;
  tc.num_leaves = 2;
  tc.num_spines = 2;
  tc.hosts_per_leaf = 2;
  tc.shared_buffer_bytes = 1 << 20;
  net::Topology topo{simulator, tc};
  EXPECT_NE(topo.leaf(0).shared_buffer(), nullptr);
  EXPECT_NE(topo.spine(1).shared_buffer(), nullptr);
  EXPECT_EQ(topo.leaf(0).shared_buffer()->total(), 1u << 20);
}

}  // namespace
}  // namespace hermes
