// Tests for the observability subsystem (src/obs + harness wiring):
// string interning, the flight-recorder ring, trace dump/load round
// trips, metrics snapshots, and the Hermes decision records a fig17
// blackhole post-mortem is built from (see EXPERIMENTS.md).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hermes/faults/fault_plan.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/net/packet.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/metrics.hpp"
#include "hermes/obs/records.hpp"
#include "hermes/obs/string_table.hpp"
#include "hermes/obs/trace_io.hpp"

namespace hermes {
namespace {

using obs::DecisionKind;
using obs::FlightRecorder;
using obs::RecordKind;
using obs::TraceRecord;

// --- StringTable --------------------------------------------------------

TEST(StringTable, InternsDedupedOneBasedIds) {
  obs::StringTable t;
  const auto a = t.intern("leaf0.up0");
  const auto b = t.intern("spine1.down3");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(t.intern("leaf0.up0"), a) << "re-interning must return the same id";
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.name(a), "leaf0.up0");
  EXPECT_EQ(t.name(0), "?");
  EXPECT_EQ(t.name(99), "?");
  EXPECT_EQ(t.find("spine1.down3"), b);
  EXPECT_EQ(t.find("absent"), 0u);
}

// --- FlightRecorder -----------------------------------------------------

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder r{100};
  EXPECT_EQ(r.capacity(), 128u);
  FlightRecorder tiny{1};
  EXPECT_EQ(tiny.capacity(), 64u) << "minimum capacity";
}

TEST(FlightRecorder, RingKeepsLastRecordsInOrder) {
  FlightRecorder r{64};
  const auto name = r.intern("port");
  for (std::uint64_t i = 0; i < 100; ++i) {
    r.append(obs::make_record(RecordKind::kPacket, /*time_ns=*/i, name, /*flow_id=*/0));
  }
  EXPECT_EQ(r.total_appended(), 100u);
  EXPECT_EQ(r.size(), 64u);
  EXPECT_EQ(r.overwritten(), 36u);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 64u);
  // Black-box semantics: the oldest surviving record is append #36,
  // and the snapshot is chronological.
  EXPECT_EQ(snap.front().time_ns, 36u);
  EXPECT_EQ(snap.back().time_ns, 99u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].time_ns, snap[i].time_ns);
  }
  r.clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.overwritten(), 0u);
}

TEST(Records, FixedSixtyFourByteLayout) {
  static_assert(sizeof(TraceRecord) == 64);
  const TraceRecord r =
      obs::make_record(RecordKind::kDecision, /*time_ns=*/42, /*name=*/7, /*flow_id=*/9);
  EXPECT_EQ(r.time_ns, 42u);
  EXPECT_EQ(r.flow_id, 9u);
  EXPECT_EQ(r.name, 7u);
  EXPECT_EQ(r.kind, RecordKind::kDecision);
  // make_record zeroes the payload (and padding) for reproducible dumps.
  EXPECT_EQ(r.u.decision.delta_rtt_ns, 0);
  EXPECT_EQ(r.u.decision.sent_bytes, 0u);
}

// --- trace_io -----------------------------------------------------------

TEST(TraceIo, DumpLoadRoundTrip) {
  FlightRecorder rec{64};
  const auto port = rec.intern("leaf0.host2");
  const auto lb = rec.intern("hermes");
  for (std::uint64_t i = 0; i < 80; ++i) {  // wraps: 16 overwritten
    auto r = obs::make_record(RecordKind::kPacket, i * 1000, port, /*flow_id=*/i % 3);
    r.u.packet.packet_id = i;
    r.u.packet.size = 1500;
    r.u.packet.event = static_cast<std::uint8_t>(obs::PacketEvent::kTransmit);
    rec.append(r);
  }
  auto d = obs::make_record(RecordKind::kDecision, 81'000, lb, /*flow_id=*/1);
  d.u.decision.kind = static_cast<std::uint8_t>(DecisionKind::kBlackholeLatch);
  d.u.decision.from_path = 3;
  rec.append(d);

  const std::string path = testing::TempDir() + "obs_roundtrip.htrc";
  ASSERT_TRUE(obs::write_trace(path, rec));

  obs::LoadedTrace t;
  std::string err;
  ASSERT_TRUE(obs::read_trace(path, t, &err)) << err;
  EXPECT_EQ(t.records.size(), rec.size());
  EXPECT_EQ(t.overwritten, rec.overwritten());
  ASSERT_EQ(t.names.size(), 2u);
  EXPECT_EQ(t.name(port), "leaf0.host2");
  EXPECT_EQ(t.name(lb), "hermes");
  const auto& last = t.records.back();
  EXPECT_EQ(last.kind, RecordKind::kDecision);
  EXPECT_EQ(last.flow_id, 1u);
  EXPECT_EQ(last.u.decision.from_path, 3);
  std::remove(path.c_str());
}

// Older builds, and the fuzz artifacts they dumped, wrote version 2: the
// version-1 layout plus a flow-index footer after the records. Write one
// by hand, footer included, and it must load with the same records, names
// and per-flow index as the version-1 write of the same recorder.
TEST(TraceIo, OlderV2FileWithFooterLoadsLikeV1) {
  FlightRecorder rec{64};
  const auto port = rec.intern("leaf0.up1");
  const auto lb = rec.intern("hermes");
  for (std::uint64_t i = 0; i < 40; ++i) {
    rec.append(obs::make_record(RecordKind::kPacket, i * 100, port, /*flow_id=*/(i * 7) % 5));
  }
  rec.append(obs::make_record(RecordKind::kDecision, 4'100, lb, /*flow_id=*/3));
  const std::string v1_path = testing::TempDir() + "obs_v1.htrc";
  ASSERT_TRUE(obs::write_trace(v1_path, rec));
  std::uint32_t written_version = 0;
  std::FILE* in = std::fopen(v1_path.c_str(), "rb");
  ASSERT_NE(in, nullptr);
  std::fseek(in, 4, SEEK_SET);
  ASSERT_EQ(std::fread(&written_version, sizeof written_version, 1, in), 1u);
  std::fclose(in);
  EXPECT_EQ(written_version, 1u) << "the writer writes the layout every reader accepts";
  obs::LoadedTrace v1;
  std::string err;
  ASSERT_TRUE(obs::read_trace(v1_path, v1, &err)) << err;
  ASSERT_EQ(v1.flow_ranges.size(), 5u);

  const std::string v2_path = testing::TempDir() + "obs_v2.htrc";
  std::FILE* f = std::fopen(v2_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const auto put = [f](const auto& v) { std::fwrite(&v, sizeof v, 1, f); };
  std::fwrite("HTRC", 1, 4, f);
  put(std::uint32_t{2});
  put(static_cast<std::uint32_t>(sizeof(TraceRecord)));
  put(std::uint32_t{2});
  put(static_cast<std::uint64_t>(rec.size()));
  put(rec.overwritten());
  for (const char* name : {"leaf0.up1", "hermes"}) {
    const std::string s{name};
    put(static_cast<std::uint32_t>(s.size()));
    std::fwrite(s.data(), 1, s.size(), f);
  }
  const std::vector<TraceRecord> records = rec.snapshot();
  std::fwrite(records.data(), sizeof(TraceRecord), records.size(), f);
  std::fwrite("HIDX", 1, 4, f);
  put(static_cast<std::uint32_t>(v1.flow_ranges.size()));
  for (const obs::LoadedTrace::FlowRange& r : v1.flow_ranges) {
    put(r.flow_id);
    put(r.begin);
    put(r.count);
  }
  std::fwrite(v1.flow_perm.data(), sizeof(std::uint32_t), v1.flow_perm.size(), f);
  std::fclose(f);

  obs::LoadedTrace v2;
  ASSERT_TRUE(obs::read_trace(v2_path, v2, &err)) << err;
  ASSERT_EQ(v2.records.size(), v1.records.size());
  for (std::size_t i = 0; i < v1.records.size(); ++i) {
    EXPECT_EQ(std::memcmp(&v2.records[i], &v1.records[i], sizeof(TraceRecord)), 0) << i;
  }
  EXPECT_EQ(v2.names, v1.names);
  EXPECT_EQ(v2.overwritten, v1.overwritten);
  EXPECT_EQ(v2.flow_perm, v1.flow_perm);
  ASSERT_EQ(v2.flow_ids(), v1.flow_ids());
  for (const std::uint64_t id : v1.flow_ids()) {
    const auto a = v1.flow_records(id);
    const auto b = v2.flow_records(id);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "flow " << id;
  }
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
}

TEST(TraceIo, RejectsGarbageAndMissingFiles) {
  obs::LoadedTrace t;
  std::string err;
  EXPECT_FALSE(obs::read_trace("/nonexistent/trace.htrc", t, &err));
  EXPECT_EQ(err, "cannot open file");

  const std::string path = testing::TempDir() + "obs_garbage.htrc";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a trace at all", f);
  std::fclose(f);
  EXPECT_FALSE(obs::read_trace(path, t, &err));
  EXPECT_EQ(err, "not a hermes trace (bad magic)");
  std::remove(path.c_str());
}

// --- metrics ------------------------------------------------------------

TEST(Metrics, HistogramLogBuckets) {
  obs::Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(7);
  h.observe(8);
  h.observe(1'000'000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1'000'016u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1'000'000u);
  EXPECT_EQ(h.bucket_count(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket_count(2), 1u);  // 4..7
  EXPECT_EQ(h.bucket_count(3), 1u);  // 8..15
  EXPECT_EQ(h.highest_bucket(), obs::Histogram::bucket_of(1'000'000));
  EXPECT_EQ(obs::Histogram::bucket_upper(2), 7u);
}

TEST(Metrics, SnapshotsSortedByNameAndStable) {
  obs::MetricsRegistry reg;
  std::uint64_t drops = 3;
  reg.counter_fn("net.drops", [&] { return drops; });
  reg.counter_fn("lb.reroutes", [] { return std::uint64_t{7}; });
  reg.gauge_fn("faults.active", [] { return 2.0; });
  reg.histogram("lb.latch_lifetime_us").observe(500);

  const std::string text = reg.snapshot_text();
  // Counters in sorted name order: lb.* before net.*.
  EXPECT_LT(text.find("lb.reroutes 7"), text.find("net.drops 3"));
  EXPECT_NE(text.find("faults.active 2"), std::string::npos);
  EXPECT_NE(text.find("lb.latch_lifetime_us count=1"), std::string::npos);
  EXPECT_EQ(text, reg.snapshot_text()) << "same state must snapshot byte-identically";

  const std::string json = reg.snapshot_json();
  EXPECT_NE(json.find("\"net.drops\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\":[[511,1]]"), std::string::npos) << json;

  drops = 4;  // pull model: the closure reads live state
  EXPECT_NE(reg.snapshot_text().find("net.drops 4"), std::string::npos);
}

// --- Scenario wiring ----------------------------------------------------

harness::ScenarioConfig small_hermes_config() {
  harness::ScenarioConfig cfg;
  cfg.topo.num_leaves = 2;
  cfg.topo.num_spines = 4;
  cfg.topo.hosts_per_leaf = 4;
  cfg.scheme = harness::Scheme::kHermes;
  cfg.seed = 5;
  return cfg;
}

TEST(ScenarioObs, DisabledMeansNoRecorder) {
  harness::Scenario s{small_hermes_config()};
  EXPECT_EQ(s.recorder(), nullptr);
  EXPECT_FALSE(s.dump_trace(testing::TempDir() + "never_written.htrc"));
  // The metrics registry is always on, recorder or not.
  EXPECT_NE(s.metrics().snapshot_text().find("sim.events_processed"), std::string::npos);
}

TEST(ScenarioObs, PacketRecordsFlowThroughPorts) {
  auto cfg = small_hermes_config();
  cfg.obs.enabled = true;
  harness::Scenario s{cfg};
  ASSERT_NE(s.recorder(), nullptr);
  s.add_flow(0, 4, 100'000, sim::SimTime::zero());
  (void)s.run();
  std::uint64_t packets = 0;
  bool named = true;
  for (const auto& r : s.recorder()->snapshot()) {
    if (r.kind != RecordKind::kPacket) continue;
    ++packets;
    named = named && r.name != 0;
  }
  EXPECT_GT(packets, 100u) << "a 100KB flow crosses the fabric in ~70 packets + ACKs";
  EXPECT_TRUE(named) << "every packet record carries an interned port name";
}

// The fig17 post-mortem scenario in miniature: every spine blackholes
// leaf0->leaf1 data, so the flow's path state degrades through exactly
// the Algorithm 2 decision sequence the flight recorder must capture —
// initial placement, >=3 timeouts on the path, a blackhole latch, then
// timeout/failure escapes to (equally dead) fresh paths.
TEST(ScenarioObs, BlackholeProducesDecisionRecords) {
  auto cfg = small_hermes_config();
  cfg.obs.enabled = true;
  cfg.obs.trace_packets = false;  // keep the ring for decision records
  cfg.max_sim_time = sim::sec(2);
  harness::Scenario s{cfg};
  for (int sp = 0; sp < 4; ++sp) {
    s.topology().spine(sp).set_failure(
        {.blackhole =
             [&topo = s.topology()](const net::Packet& p) {
               return p.type == net::PacketType::kData && topo.leaf_of(p.src) == 0 &&
                      topo.leaf_of(p.dst) == 1;
             },
         .random_drop_rate = 0.0});
  }
  const auto flow_id = s.add_flow(0, 4, 50'000, sim::SimTime::zero());
  (void)s.run();

  int initial = 0;
  int timeout_escapes = 0;
  int latches = 0;
  for (const auto& r : s.recorder()->snapshot()) {
    if (r.kind != RecordKind::kDecision || r.flow_id != flow_id) continue;
    switch (static_cast<DecisionKind>(r.u.decision.kind)) {
      case DecisionKind::kInitialPlacement: ++initial; break;
      case DecisionKind::kTimeoutEscape: ++timeout_escapes; break;
      case DecisionKind::kBlackholeLatch: ++latches; break;
      default: break;
    }
  }
  EXPECT_EQ(initial, 1);
  EXPECT_GE(timeout_escapes, 1) << "3 RTOs then a fresh pick";
  EXPECT_GE(latches, 1) << "the paper's 3-timeout blackhole detector must latch";

  // The same story through the metrics registry.
  ASSERT_NE(s.hermes(), nullptr);
  EXPECT_GE(s.hermes()->decision_stats().blackhole_latches, 1u);

  // And the trace survives a dump/load round trip for hermestrace.
  const std::string path = testing::TempDir() + "obs_blackhole.htrc";
  ASSERT_TRUE(s.dump_trace(path));
  obs::LoadedTrace t;
  std::string err;
  ASSERT_TRUE(obs::read_trace(path, t, &err)) << err;
  EXPECT_EQ(t.records.size(), s.recorder()->size());
  std::remove(path.c_str());
}

TEST(ScenarioObs, FaultTransitionsAreRecorded) {
  auto cfg = small_hermes_config();
  cfg.obs.enabled = true;
  cfg.obs.trace_packets = false;
  cfg.max_sim_time = sim::msec(100);
  const int spine1 = cfg.topo.shape().spine(1);
  cfg.fault_plan.transient_random_drop(sim::msec(10), sim::msec(40), spine1, 0.05);
  harness::Scenario s{cfg};
  // Long enough (~40ms at 10G) that the run is still going when both
  // fault transitions fire; the run would otherwise end at flow finish.
  s.add_flow(0, 4, 50'000'000, sim::SimTime::zero());
  (void)s.run();

  int onsets = 0;
  int recoveries = 0;
  for (const auto& r : s.recorder()->snapshot()) {
    if (r.kind != RecordKind::kFault) continue;
    (r.u.fault.onset != 0 ? onsets : recoveries)++;
    EXPECT_EQ(r.u.fault.sw, spine1);
    EXPECT_EQ(r.u.fault.uplink, -1);
  }
  EXPECT_EQ(onsets, 1);
  EXPECT_EQ(recoveries, 1);
  EXPECT_NE(s.metrics().snapshot_text().find("faults.applied 2"), std::string::npos);
}

// Fixed seed => byte-identical metrics snapshot, run to run. This is the
// determinism contract extended to telemetry (snapshots iterate sorted
// std::map keys; transport totals accumulate in completion order).
TEST(ScenarioObs, MetricsSnapshotIsByteStableAtFixedSeed) {
  const auto run_snapshot = [] {
    auto cfg = small_hermes_config();
    cfg.obs.enabled = true;
    harness::Scenario s{cfg};
    s.add_flow(0, 4, 200'000, sim::SimTime::zero());
    s.add_flow(1, 5, 200'000, sim::usec(10));
    (void)s.run();
    return s.metrics().snapshot_text();
  };
  const std::string a = run_snapshot();
  EXPECT_NE(a.find("transport.flows_completed 2"), std::string::npos) << a;
  EXPECT_NE(a.find("net.tx_packets"), std::string::npos);
  EXPECT_EQ(a, run_snapshot());
}

}  // namespace
}  // namespace hermes
