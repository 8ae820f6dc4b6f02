// hermestrace — offline analysis of Hermes flight-recorder traces.
//
// Loads a trace dumped by harness::Scenario::dump_trace() (schema v1, or
// a v2 file from an older build) and answers the questions trace-driven debugging
// needs (EXPERIMENTS.md):
//
//   hermestrace FILE --summary            what happened, at a glance
//   hermestrace FILE --flow=N             one flow's full event timeline
//                                         (flow-index lookup: O(log n))
//   hermestrace FILE --decisions          every Algorithm 2 decision record
//   hermestrace A --diff B                align Algorithm-2 decisions by
//                                         flow id, report first divergence
//   hermestrace FILE ... --json           machine-readable output
//   hermestrace FILE --chrome=OUT.json    Chrome trace-event timeline
//                                         (load in chrome://tracing / Perfetto)
//
// Exit status: 0 ok, 1 bad query (unknown flow) or divergent --diff,
// 2 usage/IO error. Truncated or corrupt trace input always exits 2
// with a one-line reason — never partial output.

#include <charconv>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "hermes/obs/records.hpp"
#include "hermes/obs/trace_diff.hpp"
#include "hermes/obs/trace_io.hpp"

namespace {

using hermes::obs::DecisionKind;
using hermes::obs::LoadedTrace;
using hermes::obs::PacketEvent;
using hermes::obs::RecordKind;
using hermes::obs::TraceRecord;

double usec(std::uint64_t time_ns) { return static_cast<double>(time_ns) * 1e-3; }

const char* packet_event_name(std::uint8_t e) {
  return hermes::obs::to_string(static_cast<PacketEvent>(e));
}

const char* decision_kind_name(std::uint8_t k) {
  return hermes::obs::to_string(static_cast<DecisionKind>(k));
}

/// One text line per record, shared by --flow and --decisions.
std::string render(const LoadedTrace& t, const TraceRecord& r) {
  char buf[256];
  switch (r.kind) {
    case RecordKind::kPacket:
      std::snprintf(buf, sizeof buf,
                    "%12.3fus %-4s %-14s pkt=%" PRIu64 " flow=%" PRIu64 " seq=%" PRIu64
                    " size=%u%s",
                    usec(r.time_ns), packet_event_name(r.u.packet.event),
                    t.name(r.name).c_str(), r.u.packet.packet_id, r.flow_id, r.u.packet.seq,
                    r.u.packet.size, r.u.packet.ce != 0 ? " CE" : "");
      break;
    case RecordKind::kFault:
      std::snprintf(buf, sizeof buf, "%12.3fus FAULT %s action=%u switch=%d uplink=%d",
                    usec(r.time_ns), r.u.fault.onset != 0 ? "onset" : "recovery",
                    r.u.fault.action, r.u.fault.sw, r.u.fault.uplink);
      break;
    case RecordKind::kDecision: {
      const auto& d = r.u.decision;
      std::snprintf(buf, sizeof buf,
                    "%12.3fus DECIDE flow=%" PRIu64 " %-18s path %d(%s) -> %d(%s)"
                    " dRTT=%.1fus dECN=%.3f S=%" PRIu64 "B R=%.2fGbps [%d->%d]",
                    usec(r.time_ns), r.flow_id, decision_kind_name(d.kind), d.from_path,
                    hermes::obs::path_condition_name(d.from_cond), d.to_path,
                    hermes::obs::path_condition_name(d.to_cond),
                    static_cast<double>(d.delta_rtt_ns) * 1e-3,
                    static_cast<double>(d.delta_ecn), d.sent_bytes, d.rate_bps * 1e-9,
                    d.src_leaf, d.dst_leaf);
      break;
    }
    default:
      std::snprintf(buf, sizeof buf, "%12.3fus ?kind=%u", usec(r.time_ns),
                    static_cast<unsigned>(r.kind));
      break;
  }
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c >= 0x20) {
      out += c;
    }
  }
  return out;
}

/// One JSON object per record, shared by --flow/--decisions under --json.
std::string render_json(const LoadedTrace& t, const TraceRecord& r) {
  char buf[384];
  switch (r.kind) {
    case RecordKind::kPacket:
      std::snprintf(buf, sizeof buf,
                    "{\"t_us\":%.3f,\"kind\":\"packet\",\"event\":\"%s\",\"port\":\"%s\","
                    "\"packet_id\":%" PRIu64 ",\"flow\":%" PRIu64 ",\"seq\":%" PRIu64
                    ",\"size\":%u,\"ce\":%s}",
                    usec(r.time_ns), packet_event_name(r.u.packet.event),
                    json_escape(t.name(r.name)).c_str(), r.u.packet.packet_id, r.flow_id,
                    r.u.packet.seq, r.u.packet.size, r.u.packet.ce != 0 ? "true" : "false");
      break;
    case RecordKind::kFault:
      std::snprintf(buf, sizeof buf,
                    "{\"t_us\":%.3f,\"kind\":\"fault\",\"onset\":%s,\"action\":%u,"
                    "\"switch\":%d,\"uplink\":%d}",
                    usec(r.time_ns), r.u.fault.onset != 0 ? "true" : "false", r.u.fault.action,
                    r.u.fault.sw, r.u.fault.uplink);
      break;
    case RecordKind::kDecision: {
      const auto& d = r.u.decision;
      std::snprintf(buf, sizeof buf,
                    "{\"t_us\":%.3f,\"kind\":\"decision\",\"decision\":\"%s\",\"flow\":%" PRIu64
                    ",\"from_path\":%d,\"from_cond\":\"%s\",\"to_path\":%d,\"to_cond\":\"%s\","
                    "\"delta_rtt_us\":%.3f,\"delta_ecn\":%.4f,\"sent_bytes\":%" PRIu64
                    ",\"rate_bps\":%.0f,\"src_leaf\":%d,\"dst_leaf\":%d}",
                    usec(r.time_ns), decision_kind_name(d.kind), r.flow_id, d.from_path,
                    hermes::obs::path_condition_name(d.from_cond), d.to_path,
                    hermes::obs::path_condition_name(d.to_cond),
                    static_cast<double>(d.delta_rtt_ns) * 1e-3, static_cast<double>(d.delta_ecn),
                    d.sent_bytes, d.rate_bps, d.src_leaf, d.dst_leaf);
      break;
    }
    default:
      std::snprintf(buf, sizeof buf, "{\"t_us\":%.3f,\"kind\":%u}", usec(r.time_ns),
                    static_cast<unsigned>(r.kind));
      break;
  }
  return buf;
}

int cmd_summary(const LoadedTrace& t, bool json) {
  std::uint64_t packets = 0;
  std::uint64_t packet_by_event[3] = {};
  std::uint64_t fault_onsets = 0;
  std::uint64_t fault_recoveries = 0;
  std::map<std::uint8_t, std::uint64_t> decisions_by_kind;
  // flow -> decision-record count, plus the records the blackhole
  // post-mortem starts from: latches, and the timeout/failure escapes of
  // the flows that fled a dead path (fig17's affected flows usually
  // escape after one timeout, before the 3-timeout latch can fire).
  std::map<std::uint64_t, std::uint64_t> decision_flows;
  std::vector<const TraceRecord*> latches;
  std::vector<const TraceRecord*> escapes;

  // Sharded traces: pad[0] is the originating shard id and the merged
  // file's canonical order is (time_ns, shard). A record running earlier
  // than its predecessor means the merge (or a writer) broke that
  // contract — flag it rather than silently summarizing garbage.
  std::map<std::uint8_t, std::uint64_t> records_by_shard;
  std::uint64_t order_violations = 0;
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    const TraceRecord& r = t.records[i];
    ++records_by_shard[r.pad[0]];
    if (i > 0) {
      const TraceRecord& p = t.records[i - 1];
      if (r.time_ns < p.time_ns || (r.time_ns == p.time_ns && r.pad[0] < p.pad[0])) {
        ++order_violations;
      }
    }
  }

  for (const TraceRecord& r : t.records) {
    switch (r.kind) {
      case RecordKind::kPacket:
        ++packets;
        if (r.u.packet.event < 3) ++packet_by_event[r.u.packet.event];
        break;
      case RecordKind::kFault:
        ++(r.u.fault.onset != 0 ? fault_onsets : fault_recoveries);
        break;
      case RecordKind::kDecision:
        ++decisions_by_kind[r.u.decision.kind];
        ++decision_flows[r.flow_id];
        switch (static_cast<DecisionKind>(r.u.decision.kind)) {
          case DecisionKind::kBlackholeLatch: latches.push_back(&r); break;
          case DecisionKind::kTimeoutEscape:
          case DecisionKind::kFailureEscape: escapes.push_back(&r); break;
          default: break;
        }
        break;
      default: break;
    }
  }
  const std::uint64_t decisions =
      [&] {
        std::uint64_t n = 0;
        for (const auto& [k, c] : decisions_by_kind) n += c;
        return n;
      }();
  const double t0 = t.records.empty() ? 0.0 : usec(t.records.front().time_ns);
  const double t1 = t.records.empty() ? 0.0 : usec(t.records.back().time_ns);

  if (json) {
    std::printf("{\"records\":%zu,\"overwritten\":%" PRIu64 ",\"names\":%zu,"
                "\"span_us\":[%.3f,%.3f],\"packets\":{\"total\":%" PRIu64 ",\"enqueue\":%" PRIu64
                ",\"transmit\":%" PRIu64 ",\"drop\":%" PRIu64 "},\"faults\":{\"onsets\":%" PRIu64
                ",\"recoveries\":%" PRIu64 "},",
                t.records.size(), t.overwritten, t.names.size(), t0, t1, packets,
                packet_by_event[0], packet_by_event[1], packet_by_event[2], fault_onsets,
                fault_recoveries);
    bool first = true;
    std::printf("\"shards\":{");
    for (const auto& [sh, c] : records_by_shard) {
      std::printf("%s\"%u\":%" PRIu64, first ? "" : ",", static_cast<unsigned>(sh), c);
      first = false;
    }
    std::printf("},\"order_violations\":%" PRIu64 ",\"decisions\":{", order_violations);
    first = true;
    for (const auto& [k, c] : decisions_by_kind) {
      std::printf("%s\"%s\":%" PRIu64, first ? "" : ",", decision_kind_name(k), c);
      first = false;
    }
    std::printf("},\"blackhole_latches\":[");
    first = true;
    for (const TraceRecord* r : latches) {
      std::printf("%s{\"t_us\":%.3f,\"flow\":%" PRIu64 ",\"path\":%d,\"src_leaf\":%d,"
                  "\"dst_leaf\":%d}",
                  first ? "" : ",", usec(r->time_ns), r->flow_id, r->u.decision.from_path,
                  r->u.decision.src_leaf, r->u.decision.dst_leaf);
      first = false;
    }
    std::printf("],\"escapes\":[");
    first = true;
    for (const TraceRecord* r : escapes) {
      std::printf("%s{\"t_us\":%.3f,\"flow\":%" PRIu64 ",\"decision\":\"%s\",\"from_path\":%d,"
                  "\"from_cond\":\"%s\",\"to_path\":%d,\"src_leaf\":%d,\"dst_leaf\":%d}",
                  first ? "" : ",", usec(r->time_ns), r->flow_id,
                  decision_kind_name(r->u.decision.kind), r->u.decision.from_path,
                  hermes::obs::path_condition_name(r->u.decision.from_cond),
                  r->u.decision.to_path, r->u.decision.src_leaf, r->u.decision.dst_leaf);
      first = false;
    }
    std::printf("]}\n");
    return 0;
  }

  std::printf("trace: %zu records (%" PRIu64 " overwritten before dump), %zu names\n",
              t.records.size(), t.overwritten, t.names.size());
  std::printf("span:  %.3fus .. %.3fus\n", t0, t1);
  if (records_by_shard.size() > 1 || order_violations != 0) {
    std::printf("shards:");
    for (const auto& [sh, c] : records_by_shard) {
      std::printf(" %u=%" PRIu64, static_cast<unsigned>(sh), c);
    }
    std::printf("\n");
    if (order_violations != 0) {
      std::printf("WARNING: %" PRIu64 " cross-shard time-order violation(s) — merged trace "
                  "is not sorted by (time, shard); the merge or a writer is broken\n",
                  order_violations);
    } else {
      std::printf("cross-shard time order: OK\n");
    }
  }
  std::printf("packets: %" PRIu64 " (ENQ %" PRIu64 " / TX %" PRIu64 " / DROP %" PRIu64 ")\n",
              packets, packet_by_event[0], packet_by_event[1], packet_by_event[2]);
  std::printf("faults: %" PRIu64 " onset(s), %" PRIu64 " recovery(ies)\n", fault_onsets,
              fault_recoveries);
  std::printf("decisions: %" PRIu64 " across %zu flow(s)\n", decisions, decision_flows.size());
  for (const auto& [k, c] : decisions_by_kind) {
    std::printf("  %-20s %" PRIu64 "\n", decision_kind_name(k), c);
  }
  if (!latches.empty()) {
    std::printf("blackhole latches:\n");
    for (const TraceRecord* r : latches) {
      std::printf("  %12.3fus flow=%" PRIu64 " path=%d (leaf%d->leaf%d)\n", usec(r->time_ns),
                  r->flow_id, r->u.decision.from_path, r->u.decision.src_leaf,
                  r->u.decision.dst_leaf);
    }
  }
  if (!escapes.empty()) {
    std::printf("escape decisions (flows fleeing a timed-out/failed path):\n");
    constexpr std::size_t kMaxShown = 20;
    for (std::size_t i = 0; i < escapes.size(); ++i) {
      if (i == kMaxShown) {
        std::printf("  ... and %zu more (use --decisions for all)\n", escapes.size() - i);
        break;
      }
      const TraceRecord* r = escapes[i];
      std::printf("  %12.3fus flow=%" PRIu64 " %-15s path %d(%s) -> %d (leaf%d->leaf%d)\n",
                  usec(r->time_ns), r->flow_id, decision_kind_name(r->u.decision.kind),
                  r->u.decision.from_path,
                  hermes::obs::path_condition_name(r->u.decision.from_cond),
                  r->u.decision.to_path, r->u.decision.src_leaf, r->u.decision.dst_leaf);
    }
  }
  return 0;
}

int print_filtered(const LoadedTrace& t, bool json,
                   const std::function<bool(const TraceRecord&)>& keep) {
  std::uint64_t n = 0;
  if (json) std::printf("[");
  for (const TraceRecord& r : t.records) {
    if (!keep(r)) continue;
    if (json) {
      std::printf("%s%s", n != 0 ? ",\n " : "", render_json(t, r).c_str());
    } else {
      std::printf("%s\n", render(t, r).c_str());
    }
    ++n;
  }
  if (json) std::printf("]\n");
  if (n == 0 && !json) {
    std::fprintf(stderr, "hermestrace: no matching records\n");
    return 1;
  }
  return 0;
}

/// --flow=N: the flow index resolves the flow's records in O(log n)
/// instead of scanning the whole trace; output order stays chronological
/// because the index preserves append order within a flow.
int cmd_flow(const LoadedTrace& t, std::uint64_t flow_id, bool json) {
  std::uint64_t n = 0;
  if (json) std::printf("[");
  for (const std::uint32_t idx : t.flow_records(flow_id)) {
    const TraceRecord& r = t.records[idx];
    if (r.kind != RecordKind::kPacket && r.kind != RecordKind::kDecision) continue;
    if (json) {
      std::printf("%s%s", n != 0 ? ",\n " : "", render_json(t, r).c_str());
    } else {
      std::printf("%s\n", render(t, r).c_str());
    }
    ++n;
  }
  if (json) std::printf("]\n");
  if (n == 0 && !json) {
    std::fprintf(stderr, "hermestrace: no matching records\n");
    return 1;
  }
  return 0;
}

/// One side of a divergence ("-" when that run has no such decision).
std::string diff_side(const LoadedTrace& t, std::int64_t index) {
  if (index < 0) return "(no decision)";
  return render(t, t.records[static_cast<std::size_t>(index)]);
}

/// --diff: align Algorithm-2 decision records by flow id and pinpoint the
/// first divergence — the debugging primitive for "same seed, different
/// binary" regressions. Exit 0 identical, 1 divergent.
int cmd_diff(const LoadedTrace& a, const LoadedTrace& b, const std::string& name_a,
             const std::string& name_b, bool json) {
  const hermes::obs::DiffResult res = hermes::obs::diff_decisions(a, b);
  if (json) {
    std::printf("{\"a\":\"%s\",\"b\":\"%s\",\"decisions_a\":%" PRIu64 ",\"decisions_b\":%" PRIu64
                ",\"flows_compared\":%" PRIu64 ",\"divergent_flows\":%zu,\"divergences\":[",
                json_escape(name_a).c_str(), json_escape(name_b).c_str(), res.decisions_a,
                res.decisions_b, res.flows_compared, res.divergences.size());
    bool first = true;
    for (const hermes::obs::DecisionDiff& d : res.divergences) {
      std::printf("%s{\"flow\":%" PRIu64 ",\"ordinal\":%zu,\"field\":\"%s\",\"t_us\":%.3f,"
                  "\"a\":%s,\"b\":%s}",
                  first ? "" : ",\n ", d.flow_id, d.ordinal, d.field, usec(d.time_ns),
                  d.a_index >= 0
                      ? render_json(a, a.records[static_cast<std::size_t>(d.a_index)]).c_str()
                      : "null",
                  d.b_index >= 0
                      ? render_json(b, b.records[static_cast<std::size_t>(d.b_index)]).c_str()
                      : "null");
      first = false;
    }
    std::printf("]}\n");
    return res.identical() ? 0 : 1;
  }

  std::printf("diff: %s vs %s\n", name_a.c_str(), name_b.c_str());
  std::printf("decisions: %" PRIu64 " vs %" PRIu64 ", flows compared: %" PRIu64
              ", divergent flows: %zu\n",
              res.decisions_a, res.decisions_b, res.flows_compared, res.divergences.size());
  if (res.identical()) {
    std::printf("decision streams are identical\n");
    return 0;
  }
  const hermes::obs::DecisionDiff* first = res.first();
  std::printf("first divergence: %12.3fus flow=%" PRIu64 " decision #%zu field=%s\n",
              usec(first->time_ns), first->flow_id, first->ordinal, first->field);
  std::printf("  A: %s\n", diff_side(a, first->a_index).c_str());
  std::printf("  B: %s\n", diff_side(b, first->b_index).c_str());
  constexpr std::size_t kMaxShown = 10;
  std::printf("per-flow first divergences:\n");
  for (std::size_t i = 0; i < res.divergences.size(); ++i) {
    if (i == kMaxShown) {
      std::printf("  ... and %zu more (use --json for all)\n", res.divergences.size() - i);
      break;
    }
    const hermes::obs::DecisionDiff& d = res.divergences[i];
    std::printf("  %12.3fus flow=%" PRIu64 " decision #%zu field=%s\n", usec(d.time_ns),
                d.flow_id, d.ordinal, d.field);
  }
  return 1;
}

/// Chrome trace-event format (chrome://tracing, Perfetto): instant events
/// on per-port, per-flow and fault tracks.
int cmd_chrome(const LoadedTrace& t, const std::string& out_path) {
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "hermestrace: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (const TraceRecord& r : t.records) {
    switch (r.kind) {
      case RecordKind::kPacket:
        sep();
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,"
                     "\"tid\":\"%s\",\"args\":{\"flow\":%" PRIu64 ",\"seq\":%" PRIu64
                     ",\"size\":%u,\"ce\":%u}}",
                     packet_event_name(r.u.packet.event), usec(r.time_ns),
                     json_escape(t.name(r.name)).c_str(), r.flow_id, r.u.packet.seq,
                     r.u.packet.size, r.u.packet.ce);
        break;
      case RecordKind::kFault:
        sep();
        std::fprintf(f,
                     "{\"name\":\"fault %s\",\"ph\":\"i\",\"s\":\"g\",\"ts\":%.3f,\"pid\":1,"
                     "\"tid\":\"faults\",\"args\":{\"action\":%u,\"switch\":%d,"
                     "\"uplink\":%d}}",
                     r.u.fault.onset != 0 ? "onset" : "recovery", usec(r.time_ns),
                     r.u.fault.action, r.u.fault.sw, r.u.fault.uplink);
        break;
      case RecordKind::kDecision:
        sep();
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"p\",\"ts\":%.3f,\"pid\":1,"
                     "\"tid\":\"flow %" PRIu64 "\",\"args\":{\"from\":%d,\"to\":%d,"
                     "\"delta_rtt_us\":%.3f,\"delta_ecn\":%.4f}}",
                     decision_kind_name(r.u.decision.kind), usec(r.time_ns), r.flow_id,
                     r.u.decision.from_path, r.u.decision.to_path,
                     static_cast<double>(r.u.decision.delta_rtt_ns) * 1e-3,
                     static_cast<double>(r.u.decision.delta_ecn));
        break;
      default: break;
    }
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "hermestrace: write failed for %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

void usage(std::FILE* to) {
  std::fputs("usage: hermestrace FILE [--summary] [--flow=N] [--decisions]"
             " [--diff=OTHER.htrc] [--json] [--chrome=OUT.json]\n",
             to);
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  bool want_summary = false;
  bool want_decisions = false;
  bool want_json = false;
  bool have_flow = false;
  std::uint64_t flow_id = 0;
  std::string chrome_out;
  std::string diff_other;
  bool next_is_diff = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (next_is_diff) {
      diff_other = a;
      next_is_diff = false;
    } else if (a == "--summary") {
      want_summary = true;
    } else if (a == "--decisions") {
      want_decisions = true;
    } else if (a == "--json") {
      want_json = true;
    } else if (a.rfind("--flow=", 0) == 0) {
      // Digits only: a sign, a letter or an overflow is refused rather
      // than read as another flow (fault records carry flow id 0).
      const char* last = a.c_str() + a.size();
      const auto [ptr, ec] = std::from_chars(a.c_str() + 7, last, flow_id);
      if (ec != std::errc{} || ptr != last) {
        std::fprintf(stderr, "hermestrace: %s: want a flow id, a whole number\n", a.c_str());
        return 2;
      }
      have_flow = true;
    } else if (a.rfind("--chrome=", 0) == 0) {
      chrome_out = a.substr(9);
    } else if (a.rfind("--diff=", 0) == 0) {
      diff_other = a.substr(7);
    } else if (a == "--diff") {
      next_is_diff = true;  // allow `hermestrace A --diff B`
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "hermestrace: unknown option '%s'\n", a.c_str());
      return 2;
    } else if (file.empty()) {
      file = a;
    } else {
      usage(stderr);
      return 2;
    }
  }
  if (file.empty() || next_is_diff) {
    usage(stderr);
    return 2;
  }

  LoadedTrace trace;
  std::string err;
  if (!hermes::obs::read_trace(file, trace, &err)) {
    std::fprintf(stderr, "hermestrace: %s: %s\n", file.c_str(), err.c_str());
    return 2;
  }

  if (!diff_other.empty()) {
    LoadedTrace other;
    if (!hermes::obs::read_trace(diff_other, other, &err)) {
      std::fprintf(stderr, "hermestrace: %s: %s\n", diff_other.c_str(), err.c_str());
      return 2;
    }
    return cmd_diff(trace, other, file, diff_other, want_json);
  }
  if (!chrome_out.empty()) return cmd_chrome(trace, chrome_out);
  if (have_flow) return cmd_flow(trace, flow_id, want_json);
  if (want_decisions) {
    return print_filtered(trace, want_json,
                          [](const TraceRecord& r) { return r.kind == RecordKind::kDecision; });
  }
  (void)want_summary;  // --summary is the default query
  return cmd_summary(trace, want_json);
}
