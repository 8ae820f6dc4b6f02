// Tests for the scenario fuzzer + auto-triage loop (DESIGN.md section
// 10): seeded scenario generation (golden-hash pinned), the harness fuzz
// runner, triage trace dumps on failing runs, the flow-id trace index,
// and decision diffing between two runs of the same scenario.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <gtest/gtest.h>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hermes/faults/fault_plan.hpp"
#include "hermes/faults/scenario_fuzzer.hpp"
#include "hermes/harness/fuzz_runner.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/records.hpp"
#include "hermes/obs/trace_diff.hpp"
#include "hermes/obs/trace_io.hpp"
#include "hermes/stats/csv.hpp"

namespace hermes {
namespace {

using faults::fuzz::FuzzScenario;
using faults::fuzz::generate_scenario;
using obs::DecisionKind;
using obs::RecordKind;

// --- generate_scenario ---------------------------------------------------

TEST(ScenarioFuzzer, SameSeedIsByteIdentical) {
  EXPECT_EQ(generate_scenario(42).describe(), generate_scenario(42).describe());
  EXPECT_NE(generate_scenario(42).describe(), generate_scenario(43).describe());
}

// Golden hash over the canonical text of seeds 0..31. Recorded from the
// initial generator; the fuzzer's whole value rests on seed stability
// (a nightly finding must replay weeks later), so any change to the
// sampling order, limits, or describe() format must re-record this and
// say so in the commit message — it invalidates all previously reported
// FUZZ_<seed>.htrc names.
constexpr std::uint64_t kFuzzGoldenHash = 0xbbb718b823e1b04bull;

TEST(ScenarioFuzzer, GoldenHashPinsSamplingOrder) {
  std::string all;
  for (std::uint64_t s = 0; s < 32; ++s) all += generate_scenario(s).describe();
  EXPECT_EQ(stats::fnv1a64(all), kFuzzGoldenHash)
      << "generated scenarios changed (" << all.size()
      << " bytes of canonical text) — seed replay across versions is "
         "broken; re-record only for an intentional generator change";
}

TEST(ScenarioFuzzer, ScenariosStayWithinLimits) {
  namespace fz = faults::fuzz;
  for (std::uint64_t s = 0; s < 20; ++s) {
    const FuzzScenario sc = generate_scenario(s);
    EXPECT_GE(sc.topo.num_leaves, fz::kMinLeaves);
    EXPECT_LE(sc.topo.num_leaves, fz::kMaxLeaves);
    EXPECT_GE(sc.topo.num_spines, fz::kMinSpines);
    EXPECT_LE(sc.topo.num_spines, fz::kMaxSpines);
    EXPECT_LE(sc.topo.hosts_per_leaf, 8);
    EXPECT_GE(sc.num_flows, fz::kMinFlows);
    EXPECT_LE(sc.num_flows, fz::kMaxFlows);
    EXPECT_GE(sc.load, fz::kMinLoad);
    EXPECT_LT(sc.load, fz::kMaxLoad);
    EXPECT_EQ(sc.max_sim_time, fz::kMaxSimTime);
    for (const faults::FaultEvent& e : sc.plan.events()) {
      EXPECT_GE(e.at, sim::SimTime::zero());
    }
    // Build-time asymmetry never cuts a link outright (rate 0 removes
    // the path from enumeration — a different failure class).
    for (const auto& [key, bps] : sc.topo.fabric_overrides) EXPECT_GT(bps, 0.0);
  }
}

TEST(ScenarioFuzzer, EveryGeneratedFaultHeals) {
  // Replay each plan's end state under FaultScheduler semantics (cuts
  // and blackholes are idempotent per link/switch — the overlap edge
  // pattern re-cuts an already-dead link on purpose): the fuzzer must
  // not emit permanent faults, or the triage loop's stranded-flow
  // finding would drown in self-inflicted noise.
  for (std::uint64_t s = 0; s < 20; ++s) {
    const FuzzScenario sc = generate_scenario(s);
    std::set<std::pair<int, int>> cut_links;  // (switch, uplink)
    std::map<std::pair<int, int>, double> degraded;
    std::set<int> holes;
    std::map<int, double> drops;  // switch -> rate
    for (const faults::FaultEvent& e : sc.plan.sorted()) {
      const std::pair<int, int> link{e.sw, e.uplink};
      switch (e.action) {
        case faults::FaultAction::kBlackholeOn: holes.insert(e.sw); break;
        case faults::FaultAction::kBlackholeOff: holes.erase(e.sw); break;
        case faults::FaultAction::kLinkDown: cut_links.insert(link); break;
        case faults::FaultAction::kLinkUp: cut_links.erase(link); break;
        case faults::FaultAction::kLinkRate: degraded[link] = e.rate; break;
        case faults::FaultAction::kRandomDropSet: drops[e.sw] = e.rate; break;
      }
    }
    EXPECT_TRUE(holes.empty()) << "seed " << s << " leaves a blackhole installed";
    EXPECT_TRUE(cut_links.empty()) << "seed " << s << " leaves a link cut";
    for (const auto& [sw, rate] : drops) {
      EXPECT_DOUBLE_EQ(rate, 0.0) << "seed " << s << " leaves drops on";
    }
    for (const auto& [link, fraction] : degraded) {
      EXPECT_DOUBLE_EQ(fraction, 1.0) << "seed " << s << " leaves a link degraded";
    }
  }
}

// --- fuzz runner + auto-triage ------------------------------------------

TEST(FuzzRunner, ParsesSchemeNames) {
  EXPECT_EQ(harness::parse_scheme("Hermes"), harness::Scheme::kHermes);
  EXPECT_EQ(harness::parse_scheme("hermes"), harness::Scheme::kHermes);
  EXPECT_EQ(harness::parse_scheme("CLOVE-ECN"), harness::Scheme::kCloveEcn);
  EXPECT_EQ(harness::parse_scheme("clove"), harness::Scheme::kCloveEcn);
  EXPECT_EQ(harness::parse_scheme("presto"), harness::Scheme::kPrestoStar);
  EXPECT_EQ(harness::parse_scheme("no-such-scheme"), std::nullopt);
}

TEST(FuzzRunner, ConfigCarriesScenarioAndArmsTriage) {
  const FuzzScenario sc = generate_scenario(7);
  const harness::ScenarioConfig cfg =
      harness::to_scenario_config(sc, harness::Scheme::kConga);
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_EQ(cfg.scheme, harness::Scheme::kConga);
  EXPECT_EQ(cfg.topo.num_leaves, sc.topo.num_leaves);
  EXPECT_EQ(cfg.fault_plan.size(), sc.plan.size());
  EXPECT_TRUE(cfg.check_invariants);
  EXPECT_TRUE(cfg.obs.enabled);
  const harness::ScenarioConfig quick =
      harness::to_scenario_config(sc, harness::Scheme::kConga, /*triage=*/false);
  EXPECT_FALSE(quick.obs.enabled);
}

// A hand-built scenario on a 2x2 leaf-spine with two hosts per leaf.
FuzzScenario tiny_scenario(std::uint64_t seed) {
  FuzzScenario sc;
  sc.seed = seed;
  sc.topo.num_leaves = 2;
  sc.topo.num_spines = 2;
  sc.topo.hosts_per_leaf = 2;
  sc.workload_scale = 0.01;
  sc.num_flows = 8;
  sc.max_sim_time = sim::msec(100);
  return sc;
}

// The triage loop end to end, with a scenario built to fail: ECMP under a
// permanent all-spine blackhole of rack 0 -> rack 1 strands those flows,
// so the run dumps the ring to <dir>/FUZZ_<seed>.htrc and prints the two
// [triage] lines.
TEST(FuzzTriage, FailingRunDumpsReplayableTrace) {
  FuzzScenario sc = tiny_scenario(99);
  for (int spine = 0; spine < 2; ++spine) {
    sc.plan.blackhole_on(sim::SimTime::zero(), sc.topo.shape().spine(spine),
                         faults::rack_pair_blackhole(2, 0, 1));
  }
  const std::string dir = testing::TempDir();
  testing::internal::CaptureStderr();
  const harness::FuzzOutcome o =
      harness::run_fuzz_scenario(sc, harness::Scheme::kEcmp, /*triage=*/true, dir);
  const std::string err = testing::internal::GetCapturedStderr();
  ASSERT_GT(o.unfinished_flows, 0u);
  const std::string path = dir + "/FUZZ_99.htrc";
  ASSERT_EQ(o.trace_path, path);
  EXPECT_EQ(o.repro, "hermesfuzz --seed=99 --scheme=ECMP");
  EXPECT_EQ(err, "[triage] seed=99 scheme=ECMP: " + std::to_string(o.unfinished_flows) +
                     " unfinished flows at time cap\n[triage]   trace: " + path +
                     "  repro: hermesfuzz --seed=99 --scheme=ECMP\n");

  obs::LoadedTrace t;
  std::string trace_err;
  ASSERT_TRUE(obs::read_trace(path, t, &trace_err)) << trace_err;
  EXPECT_GT(t.records.size(), 0u);
  std::remove(path.c_str());
}

TEST(FuzzTriage, CleanRunDumpsNothing) {
  const std::string dir = testing::TempDir();
  const std::string path = dir + "/FUZZ_98.htrc";
  std::remove(path.c_str());
  const harness::FuzzOutcome o = harness::run_fuzz_scenario(
      tiny_scenario(98), harness::Scheme::kHermes, /*triage=*/true, dir);
  EXPECT_TRUE(o.clean());
  EXPECT_TRUE(o.trace_path.empty());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr) << "a clean run wrote " << path;
  if (f != nullptr) std::fclose(f);
}

// One full generated seed through run_fuzz_scenario: either it is clean
// (no dump), or the contract holds — a dumped, parseable trace plus a
// repro command naming the seed. Both sides of the contract are what
// the nightly CI shard relies on.
TEST(FuzzRunner, OutcomeContractHolds) {
  const std::string dir = testing::TempDir();
  const harness::FuzzOutcome o = harness::run_fuzz_scenario(
      generate_scenario(1), harness::Scheme::kHermes, /*triage=*/true, dir);
  EXPECT_EQ(o.seed, 1u);
  if (o.clean()) {
    EXPECT_TRUE(o.trace_path.empty());
    EXPECT_TRUE(o.repro.empty());
  } else {
    ASSERT_FALSE(o.trace_path.empty());
    obs::LoadedTrace t;
    std::string err;
    EXPECT_TRUE(obs::read_trace(o.trace_path, t, &err)) << err;
    EXPECT_NE(o.repro.find("--seed=1"), std::string::npos);
    std::remove(o.trace_path.c_str());
  }
}

// Seed-replay of the sharded determinism fuzz mode: the exact check the
// nightly `hermesfuzz --sharded` shard runs, pinned here for two seeds
// so a thread-count-dependent regression fails in tier 1, not at night.
TEST(FuzzRunner, ShardedSeedIsThreadCountDeterministic) {
  const harness::ShardedFuzzOutcome o =
      harness::run_sharded_fuzz_seed(5, harness::Scheme::kHermes);
  EXPECT_EQ(o.seed, 5u);
  EXPECT_GE(o.num_shards, 2);
  EXPECT_TRUE(o.deterministic())
      << "T=1 hash " << o.hash_t1 << " != T=2 hash " << o.hash_t2 << "; repro: " << o.repro;
  EXPECT_EQ(o.unfinished_flows, 0u) << o.repro;

  const harness::ShardedFuzzOutcome e =
      harness::run_sharded_fuzz_seed(17, harness::Scheme::kEcmp);
  EXPECT_TRUE(e.deterministic()) << e.repro;
  EXPECT_EQ(e.unfinished_flows, 0u) << e.repro;
}

TEST(FuzzRunner, ShardedRejectsGlobalStateSchemes) {
  EXPECT_THROW((void)harness::run_sharded_fuzz_seed(1, harness::Scheme::kConga),
               std::invalid_argument);
}

// --- flow index (trace schema v2) ---------------------------------------

TEST(TraceIndex, PerFlowLookupIsChronologicalAndComplete) {
  obs::FlightRecorder rec{256};
  const auto port = rec.intern("leaf0.up0");
  // Interleave three flows; per-flow record order must match append order.
  for (std::uint64_t i = 0; i < 90; ++i) {
    rec.append(obs::make_record(RecordKind::kPacket, i * 10, port, /*flow_id=*/i % 3 + 1));
  }
  const std::string path = testing::TempDir() + "fuzz_index.htrc";
  ASSERT_TRUE(obs::write_trace(path, rec));
  obs::LoadedTrace t;
  std::string err;
  ASSERT_TRUE(obs::read_trace(path, t, &err)) << err;

  const std::vector<std::uint64_t> ids = t.flow_ids();
  ASSERT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3}));
  std::size_t total = 0;
  for (const std::uint64_t id : ids) {
    const auto span = t.flow_records(id);
    EXPECT_EQ(span.size(), 30u);
    total += span.size();
    std::uint64_t prev = 0;
    for (const std::uint32_t idx : span) {
      ASSERT_LT(idx, t.records.size());
      EXPECT_EQ(t.records[idx].flow_id, id);
      EXPECT_GE(t.records[idx].time_ns, prev);
      prev = t.records[idx].time_ns;
    }
  }
  EXPECT_EQ(total, t.records.size()) << "index must cover every record";
  EXPECT_TRUE(t.flow_records(/*flow_id=*/77).empty());
  std::remove(path.c_str());
}

// --- decision diff -------------------------------------------------------

obs::TraceRecord decision(std::uint64_t t, std::uint64_t flow, std::uint32_t name,
                          DecisionKind kind, std::int16_t from, std::int16_t to,
                          std::int64_t delta_rtt_ns = 0) {
  obs::TraceRecord r = obs::make_record(RecordKind::kDecision, t, name, flow);
  r.u.decision.kind = static_cast<std::uint8_t>(kind);
  r.u.decision.from_path = from;
  r.u.decision.to_path = to;
  r.u.decision.delta_rtt_ns = delta_rtt_ns;
  r.u.decision.from_cond = obs::kPathCondNone;
  r.u.decision.to_cond = obs::kPathCondNone;
  return r;
}

TEST(TraceDiff, IdenticalTracesAreIdentical) {
  obs::FlightRecorder rec{64};
  const auto lb = rec.intern("hermes");
  rec.append(decision(100, 1, lb, DecisionKind::kInitialPlacement, -1, 2));
  rec.append(decision(900, 1, lb, DecisionKind::kCongestionReroute, 2, 0, 40'000));
  const std::string path = testing::TempDir() + "fuzz_diff_same.htrc";
  ASSERT_TRUE(obs::write_trace(path, rec));
  obs::LoadedTrace a;
  obs::LoadedTrace b;
  std::string err;
  ASSERT_TRUE(obs::read_trace(path, a, &err)) << err;
  ASSERT_TRUE(obs::read_trace(path, b, &err)) << err;
  const obs::DiffResult d = obs::diff_decisions(a, b);
  EXPECT_TRUE(d.identical());
  EXPECT_EQ(d.decisions_a, 2u);
  EXPECT_EQ(d.decisions_b, 2u);
  EXPECT_EQ(d.first(), nullptr);
  std::remove(path.c_str());
}

TEST(TraceDiff, PinpointsFirstDivergentDecision) {
  obs::FlightRecorder ra{64};
  obs::FlightRecorder rb{64};
  const auto la = ra.intern("hermes");
  const auto lb = rb.intern("hermes");
  // Flow 1: identical first decision, divergent second (to_path 0 vs 3).
  ra.append(decision(100, 1, la, DecisionKind::kInitialPlacement, -1, 2));
  rb.append(decision(100, 1, lb, DecisionKind::kInitialPlacement, -1, 2));
  ra.append(decision(900, 1, la, DecisionKind::kCongestionReroute, 2, 0, 40'000));
  rb.append(decision(900, 1, lb, DecisionKind::kCongestionReroute, 2, 3, 40'000));
  // Flow 2: an extra trailing decision only in A; packet records are
  // ignored by the diff entirely.
  ra.append(decision(200, 2, la, DecisionKind::kInitialPlacement, -1, 1));
  rb.append(decision(200, 2, lb, DecisionKind::kInitialPlacement, -1, 1));
  ra.append(decision(2'000, 2, la, DecisionKind::kTimeoutEscape, 1, 0));
  rb.append(obs::make_record(RecordKind::kPacket, 2'000, lb, 2));

  const std::string pa = testing::TempDir() + "fuzz_diff_a.htrc";
  const std::string pb = testing::TempDir() + "fuzz_diff_b.htrc";
  ASSERT_TRUE(obs::write_trace(pa, ra));
  ASSERT_TRUE(obs::write_trace(pb, rb));
  obs::LoadedTrace a;
  obs::LoadedTrace b;
  std::string err;
  ASSERT_TRUE(obs::read_trace(pa, a, &err)) << err;
  ASSERT_TRUE(obs::read_trace(pb, b, &err)) << err;

  const obs::DiffResult d = obs::diff_decisions(a, b);
  EXPECT_FALSE(d.identical());
  EXPECT_EQ(d.decisions_a, 4u);
  EXPECT_EQ(d.decisions_b, 3u);
  ASSERT_EQ(d.divergences.size(), 2u);

  // First divergence overall (earliest sim-time): flow 1's reroute.
  const obs::DecisionDiff* first = d.first();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->flow_id, 1u);
  EXPECT_EQ(first->ordinal, 1u);
  EXPECT_EQ(first->time_ns, 900u);
  EXPECT_STREQ(first->field, "to_path");
  EXPECT_GE(first->a_index, 0);
  EXPECT_GE(first->b_index, 0);

  // Flow 2 diverges by A having one more decision than B.
  const auto& missing =
      d.divergences[0].flow_id == 2 ? d.divergences[0] : d.divergences[1];
  EXPECT_EQ(missing.flow_id, 2u);
  EXPECT_STREQ(missing.field, "missing-in-b");
  EXPECT_EQ(missing.b_index, -1);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

// Two real runs of the same scenario under different Hermes configs
// diverge in their Algorithm-2 decision stream, and the diff finds a
// concrete first divergence — the workflow EXPERIMENTS.md's triage
// walkthrough automates via `hermestrace --diff`. Run A reroutes
// eagerly off a congested degraded uplink; run B has rerouting
// disabled, so A's reroute decisions have no counterpart in B.
TEST(TraceDiff, DivergentHermesConfigsProduceAFirstDivergence) {
  const auto run_and_dump = [](const std::string& path, bool rerouting) {
    harness::ScenarioConfig cfg;
    cfg.topo.num_leaves = 2;
    cfg.topo.num_spines = 2;
    cfg.topo.hosts_per_leaf = 4;
    cfg.topo.fabric_overrides[{0, 1, 0}] = 2.5e9;  // degraded uplink via spine 1
    cfg.scheme = harness::Scheme::kHermes;
    cfg.seed = 5;
    cfg.obs.enabled = true;
    cfg.obs.trace_packets = false;
    cfg.hermes.rerouting_enabled = rerouting;
    // Make every cautious-rerouting gate trivially pass so run A moves
    // flows the moment the slow path characterizes as congested.
    cfg.hermes.sent_threshold_bytes = 0;
    cfg.hermes.rate_threshold_frac = 1.0;
    cfg.hermes.reroute_min_gap = sim::SimTime::zero();
    cfg.hermes.delta_rtt = sim::SimTime::nanoseconds(1);
    cfg.hermes.delta_ecn = 1e-6;
    harness::Scenario s{cfg};
    for (int i = 0; i < 8; ++i) {
      s.add_flow(i % 4, 4 + (i + 1) % 4, 1'000'000, sim::usec(i));
    }
    (void)s.run();
    ASSERT_TRUE(s.dump_trace(path));
  };
  const std::string pa = testing::TempDir() + "fuzz_cfg_a.htrc";
  const std::string pb = testing::TempDir() + "fuzz_cfg_b.htrc";
  run_and_dump(pa, true);   // eager rerouting
  run_and_dump(pb, false);  // rerouting off: decision streams must differ
  obs::LoadedTrace a;
  obs::LoadedTrace b;
  std::string err;
  ASSERT_TRUE(obs::read_trace(pa, a, &err)) << err;
  ASSERT_TRUE(obs::read_trace(pb, b, &err)) << err;
  const obs::DiffResult d = obs::diff_decisions(a, b);
  EXPECT_GT(d.decisions_a, 0u);
  EXPECT_GT(d.decisions_b, 0u);
  ASSERT_FALSE(d.identical()) << "a hair-trigger delta_rtt must change decisions";
  ASSERT_NE(d.first(), nullptr);
  EXPECT_NE(std::string(d.first()->field), "");
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

// --- corrupt-input regression (short record tail) ------------------------

TEST(TraceIo, ShortRecordTailIsACleanError) {
  // Handcraft a v1 trace whose header promises 4 records but whose body
  // carries only 1. The long name keeps total file size large enough to
  // pass the coarse header sanity check, so the failure is detected at
  // the record-read stage — the error hermestrace relays verbatim.
  const std::string path = testing::TempDir() + "fuzz_short_tail.htrc";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char magic[4] = {'H', 'T', 'R', 'C'};
  std::fwrite(magic, 1, 4, f);
  const std::uint32_t version = 1;
  const std::uint32_t record_size = 64;
  const std::uint32_t name_count = 1;
  const std::uint64_t record_count = 4;
  const std::uint64_t overwritten = 0;
  std::fwrite(&version, 4, 1, f);
  std::fwrite(&record_size, 4, 1, f);
  std::fwrite(&name_count, 4, 1, f);
  std::fwrite(&record_count, 8, 1, f);
  std::fwrite(&overwritten, 8, 1, f);
  const std::string name(200, 'p');
  const std::uint32_t len = 200;
  std::fwrite(&len, 4, 1, f);
  std::fwrite(name.data(), 1, name.size(), f);
  const char record[64] = {};
  std::fwrite(record, 1, sizeof record, f);  // 1 of the promised 4
  std::fclose(f);

  obs::LoadedTrace t;
  std::string err;
  EXPECT_FALSE(obs::read_trace(path, t, &err));
  EXPECT_EQ(err, "truncated record section (short record tail)");
  EXPECT_TRUE(t.records.empty()) << "no partial output on corrupt input";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hermes
