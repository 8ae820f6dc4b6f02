// hermesd: a standalone Hermes decision daemon replaying a workload
// trace against hermes::engine::Engine in wall-clock time — the repo's
// proof that the extracted engine runs outside the simulator. The
// binary links hermes::engine and nothing else from the tree: no
// simulator clock, no fabric model, no harness. Signals (ACKs,
// timeouts, retransmissions, probes) and membership changes (health,
// weight) come from a text trace; decisions and latch transitions
// stream to stdout, metrics snapshots print on demand, and a final
// machine-readable summary goes to --json.
//
// Usage: hermesd <trace-file> [--speed=N] [--json=<path>] [--log-decisions]
//   --speed=N   replay pacing: N=1 real time (trace microseconds map to
//               wall microseconds), N=2 twice as fast, N=0 (default)
//               as-fast-as-possible (CI smoke).
//
// Trace grammar (one statement per line, '#' comments):
//   groups <n>                          locality-group count
//   thresholds <low_us> <high_us> <drtt_us>   sensing thresholds
//   paths <a> <b> <n>                   pair a->b gets n unit-weight paths
//   flow <id> <src> <dst> <a> <b>       declare a flow on pair a->b
//   @<t_us> decide <flow> <bytes>       route one packet of the flow
//   @<t_us> ack <flow> <rtt_us> <ecn>   ACK on the flow's current path
//   @<t_us> timeout <flow>              the flow's RTO fired
//   @<t_us> retx <flow>                 a segment was retransmitted
//   @<t_us> probe <a> <b> <idx> <rtt_us> <ecn>   probe reply sample
//   @<t_us> health <a> <b> <idx> <healthy|degraded|unhealthy>
//   @<t_us> weight <a> <b> <idx> <w>
//   @<t_us> snapshot                    print a live metrics snapshot
//   expect <counter> <==|>=|<=> <n>     post-run assertion (exit code)
//   end                                 optional terminator
//
// Every statement is checked when the trace loads: its field count,
// each number a decimal integer in [0, 2^31), 1 <= groups <= 1024 with
// `groups` before any statement that names a group, every group index
// in [0, groups), and at most 65536 paths per `paths` line. A malformed
// trace exits 2 with a "trace line N" diagnostic before anything runs.

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <chrono>
#include <thread>

#include "hermes/engine/config.hpp"
#include "hermes/engine/decision.hpp"
#include "hermes/engine/engine.hpp"
#include "hermes/engine/host_set.hpp"
#include "hermes/engine/path_state.hpp"
#include "hermes/engine/rate.hpp"
#include "hermes/engine/time.hpp"

namespace {

using namespace hermes::engine;

/// Daemon-side flow bookkeeping: the engine holds no per-flow state, so
/// hermesd owns the FlowView plus a DRE tracking the flow's send rate
/// (the R gate of Algorithm 2).
struct FlowState {
  FlowView view;
  Dre rate{msec(1), 0.1};
};

/// Streams decisions to stdout and tallies them for the summary.
struct StdoutSink final : DecisionSink {
  bool log = false;
  std::uint64_t by_kind[6] = {};
  void on_decision(const DecisionEvent& ev) override {
    ++by_kind[static_cast<int>(ev.kind)];
    if (!log) return;
    std::printf("  t=%8.1fus  %-19s flow=%llu path %d -> %d\n",
                static_cast<double>(ev.time_ns) / 1000.0, to_string(ev.kind),
                static_cast<unsigned long long>(ev.flow_id), ev.from_path, ev.to_path);
  }
};

struct TraceEvent {
  TimeNs t = 0;
  std::vector<std::string> tok;
  int line_no = 0;
};

struct Expect {
  std::string counter;
  std::string op;
  std::uint64_t value = 0;
  int line_no = 0;
};

[[noreturn]] void die(int line_no, const std::string& msg) {
  std::fprintf(stderr, "hermesd: trace line %d: %s\n", line_no, msg.c_str());
  std::exit(2);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tok;
  std::istringstream in{line};
  std::string t;
  while (in >> t) {
    if (t[0] == '#') break;
    tok.push_back(t);
  }
  return tok;
}

Health parse_health(const std::string& s, int line_no) {
  if (s == "healthy") return Health::kHealthy;
  if (s == "degraded") return Health::kDegraded;
  if (s == "unhealthy") return Health::kUnhealthy;
  die(line_no, "unknown health state '" + s + "'");
}

/// The engine holds a PathSet per ordered group pair.
constexpr std::int64_t kMaxGroups = 1024;
/// Engine::hole_key packs the path index into 16 bits.
constexpr std::int64_t kMaxPaths = std::int64_t{1} << 16;

/// Every numeric trace field (times, ids, counts, indices, thresholds):
/// a decimal integer in [0, 2^31), or die().
std::int64_t parse_uint(const std::string& s, int line_no) {
  std::int64_t v = -1;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < 0 || v > INT32_MAX) {
    die(line_no, "'" + s + "' is not an integer in [0, 2^31)");
  }
  return v;
}

/// The fields after each keyword: 'n' an integer (parse_uint), 'g' a
/// group index, 'h' a health state, 'w' a word. Events are the
/// '@'-timed statements.
struct Statement {
  std::string_view word;
  std::string_view fields;
  bool event;
};
constexpr Statement kStatements[] = {
    {"groups", "n", false},   {"thresholds", "nnn", false}, {"paths", "ggn", false},
    {"flow", "nnngg", false}, {"expect", "wwn", false},     {"decide", "nn", true},
    {"ack", "nnn", true},     {"timeout", "n", true},       {"retx", "n", true},
    {"probe", "ggnnn", true}, {"health", "ggnh", true},     {"weight", "ggnn", true},
    {"snapshot", "", true},
};

/// Check a statement (tok[0] is its keyword) against kStatements, dying
/// on any bad field; returns whether it names a group.
bool check_statement(const std::vector<std::string>& tok, bool event, int num_groups,
                     int line_no) {
  const Statement* st = nullptr;
  for (const Statement& s : kStatements) {
    if (s.word == tok[0] && s.event == event) st = &s;
  }
  if (st == nullptr) {
    die(line_no, (event ? "unknown event '" : "unknown statement '") + tok[0] + "'");
  }
  if (tok.size() - 1 != st->fields.size()) {
    die(line_no, "'" + tok[0] + "' takes " + std::to_string(st->fields.size()) +
                     " fields, got " + std::to_string(tok.size() - 1));
  }
  bool names_group = false;
  for (std::size_t i = 0; i < st->fields.size(); ++i) {
    const std::string& f = tok[i + 1];
    if (st->fields[i] == 'n') {
      parse_uint(f, line_no);
    } else if (st->fields[i] == 'g') {
      if (parse_uint(f, line_no) >= num_groups) {
        die(line_no, "group " + f + " is outside [0, " + std::to_string(num_groups) + ")");
      }
      names_group = true;
    } else if (st->fields[i] == 'h') {
      parse_health(f, line_no);
    }
  }
  return names_group;
}

double flow_rate_fn(const void* ctx, TimeNs now) {
  return static_cast<const Dre*>(ctx)->rate_bps(now);
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string json_path;
  double speed = 0.0;
  bool log_decisions = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--speed=", 8) == 0) {
      speed = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--log-decisions") == 0) {
      log_decisions = true;
    } else if (argv[i][0] != '-') {
      trace_path = argv[i];
    } else {
      std::fprintf(stderr, "hermesd: unknown option %s\n", argv[i]);
      return 2;
    }
  }
  if (trace_path.empty()) {
    std::fprintf(stderr,
                 "usage: hermesd <trace> [--speed=N] [--json=<path>] [--log-decisions]\n");
    return 2;
  }

  // ---- load phase: setup statements execute, events queue --------------
  std::ifstream in{trace_path};
  if (!in) {
    std::fprintf(stderr, "hermesd: cannot open %s\n", trace_path.c_str());
    return 2;
  }

  Config cfg;
  cfg.t_rtt_low = usec(60);
  cfg.t_rtt_high = usec(180);
  cfg.delta_rtt = usec(80);
  int num_groups = 2;
  std::vector<TraceEvent> events;
  std::vector<Expect> expects;
  // Deferred pair/flow setup (must apply after the engine exists).
  std::vector<std::vector<std::string>> setup;

  std::string line;
  int line_no = 0;
  bool group_named = false;
  while (std::getline(in, line)) {
    ++line_no;
    std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;
    if (tok[0] == "end") break;
    if (tok[0][0] == '@') {
      TraceEvent ev;
      ev.t = usec(parse_uint(tok[0].substr(1), line_no));
      ev.line_no = line_no;
      ev.tok.assign(tok.begin() + 1, tok.end());
      if (ev.tok.empty()) die(line_no, "timestamp without an event");
      group_named = check_statement(ev.tok, true, num_groups, line_no) || group_named;
      events.push_back(std::move(ev));
      continue;
    }
    group_named = check_statement(tok, false, num_groups, line_no) || group_named;
    if (tok[0] == "groups") {
      const std::int64_t n = parse_uint(tok[1], line_no);
      if (n < 1 || n > kMaxGroups) die(line_no, "groups must be in [1, 1024]");
      if (group_named) die(line_no, "groups must precede every statement that names a group");
      num_groups = static_cast<int>(n);
    } else if (tok[0] == "thresholds") {
      cfg.t_rtt_low = usec(std::atoll(tok[1].c_str()));
      cfg.t_rtt_high = usec(std::atoll(tok[2].c_str()));
      cfg.delta_rtt = usec(std::atoll(tok[3].c_str()));
    } else if (tok[0] == "paths" || tok[0] == "flow") {
      if (tok[0] == "paths" && parse_uint(tok[3], line_no) > kMaxPaths) {
        die(line_no, "at most 65536 paths per pair");
      }
      setup.push_back(tok);
    } else {  // expect
      expects.push_back({tok[1], tok[2],
                         static_cast<std::uint64_t>(std::atoll(tok[3].c_str())), line_no});
    }
  }

  Engine engine{cfg, num_groups, /*rng_seed=*/0x4E14E5};
  StdoutSink sink;
  sink.log = log_decisions;
  engine.set_sink(&sink);

  std::map<int, HostSet> members;  // pair key a*groups+b -> declared hosts
  std::map<std::uint64_t, FlowState> flows;
  const auto pair_key = [&](int a, int b) { return a * num_groups + b; };

  for (const auto& tok : setup) {
    if (tok[0] == "paths") {
      const int a = std::atoi(tok.at(1).c_str());
      const int b = std::atoi(tok.at(2).c_str());
      const int n = std::atoi(tok.at(3).c_str());
      HostSet& hs = members[pair_key(a, b)];
      for (int i = 0; i < n; ++i) hs.add(i);
      engine.sync_pair(a, b, hs);
    } else {  // flow <id> <src> <dst> <a> <b>
      FlowState fs;
      fs.view.flow_id = static_cast<std::uint64_t>(std::atoll(tok.at(1).c_str()));
      fs.view.src = std::atoi(tok.at(2).c_str());
      fs.view.dst = std::atoi(tok.at(3).c_str());
      fs.view.src_group = std::atoi(tok.at(4).c_str());
      fs.view.dst_group = std::atoi(tok.at(5).c_str());
      flows[fs.view.flow_id] = fs;
    }
  }
  for (auto& [id, fs] : flows) {
    fs.view.rate_ctx = &fs.rate;
    fs.view.rate_fn = &flow_rate_fn;
  }

  std::printf("hermesd: %s — %d groups, %zu pairs, %zu flows, %zu events, speed %s\n",
              trace_path.c_str(), num_groups, members.size(), flows.size(), events.size(),
              speed > 0 ? std::to_string(speed).c_str() : "max");

  // ---- replay phase ----------------------------------------------------
  // hermesd:s whole point is wall-clock operation; the sim's determinism
  // rules do not apply to this embedder.
  // hermeslint:allow(determinism.clock) hermesd replays traces in real time by design; engine results depend only on trace content, never on this clock
  using WallClock = std::chrono::steady_clock;
  const auto wall0 = WallClock::now();
  std::uint64_t decisions = 0;

  const auto snapshot = [&](TimeNs t) {
    const DecisionStats& st = engine.stats();
    std::printf("snapshot t=%.1fus decisions=%llu initial=%llu timeout=%llu failure=%llu "
                "reroutes=%llu latches=%llu expiries=%llu\n",
                static_cast<double>(t) / 1000.0, static_cast<unsigned long long>(decisions),
                static_cast<unsigned long long>(st.initial_placements),
                static_cast<unsigned long long>(st.timeout_escapes),
                static_cast<unsigned long long>(st.failure_escapes),
                static_cast<unsigned long long>(st.congestion_reroutes),
                static_cast<unsigned long long>(st.blackhole_latches),
                static_cast<unsigned long long>(st.latch_expiries));
    for (const auto& [key, hs] : members) {
      const int a = key / num_groups;
      const int b = key % num_groups;
      std::printf("  pair %d->%d:", a, b);
      for (std::size_t i = 0; i < hs.size(); ++i)
        std::printf(" %s", to_string(engine.path_type(a, b, static_cast<int>(i))));
      std::printf("\n");
    }
  };

  for (const TraceEvent& ev : events) {
    if (speed > 0) {
      const auto target =
          wall0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                      static_cast<double>(ev.t) / speed));
      std::this_thread::sleep_until(target);
    }
    const std::string& what = ev.tok[0];
    const auto flow_of = [&](std::size_t i) -> FlowState& {
      const auto id = static_cast<std::uint64_t>(std::atoll(ev.tok.at(i).c_str()));
      const auto it = flows.find(id);
      if (it == flows.end()) die(ev.line_no, "unknown flow " + ev.tok.at(i));
      return it->second;
    };
    if (what == "decide") {
      FlowState& f = flow_of(1);
      const auto bytes = static_cast<std::uint32_t>(std::atoll(ev.tok.at(2).c_str()));
      const int chosen = engine.decide(f.view, bytes, ev.t);
      ++decisions;
      if (chosen >= 0) {
        f.view.cur_local = chosen;
        f.view.has_sent = true;
        f.view.bytes_sent += bytes;
        f.rate.add(bytes, ev.t);
      }
    } else if (what == "ack") {
      FlowState& f = flow_of(1);
      if (f.view.cur_local >= 0) {
        engine.on_ack(f.view.src_group, f.view.dst_group, f.view.cur_local, f.view.src,
                      f.view.dst, true, usec(std::atoll(ev.tok.at(2).c_str())),
                      std::atoi(ev.tok.at(3).c_str()) != 0);
      }
    } else if (what == "timeout") {
      FlowState& f = flow_of(1);
      f.view.timeout_pending = true;
      engine.on_timeout(f.view, ev.t);
    } else if (what == "retx") {
      FlowState& f = flow_of(1);
      if (f.view.cur_local >= 0)
        engine.on_retransmit(f.view.src_group, f.view.dst_group, f.view.cur_local, ev.t);
    } else if (what == "probe") {
      engine.feed_probe_sample(std::atoi(ev.tok.at(1).c_str()), std::atoi(ev.tok.at(2).c_str()),
                               std::atoi(ev.tok.at(3).c_str()),
                               usec(std::atoll(ev.tok.at(4).c_str())),
                               std::atoi(ev.tok.at(5).c_str()) != 0);
    } else if (what == "health" || what == "weight") {
      const int a = std::atoi(ev.tok.at(1).c_str());
      const int b = std::atoi(ev.tok.at(2).c_str());
      const auto idx = static_cast<std::int64_t>(std::atoll(ev.tok.at(3).c_str()));
      const auto it = members.find(pair_key(a, b));
      if (it == members.end()) die(ev.line_no, "pair has no declared paths");
      if (what == "health") {
        it->second.set_health(idx, parse_health(ev.tok.at(4), ev.line_no));
      } else {
        it->second.set_weight(idx, static_cast<std::uint32_t>(std::atoll(ev.tok.at(4).c_str())));
      }
      engine.sync_pair(a, b, it->second);
    } else if (what == "snapshot") {
      snapshot(ev.t);
    } else {
      die(ev.line_no, "unknown event '" + what + "'");
    }
  }

  const double wall_ms =
      std::chrono::duration<double, std::milli>(WallClock::now() - wall0).count();

  // ---- summary + expectations -----------------------------------------
  const DecisionStats& st = engine.stats();
  const std::map<std::string, std::uint64_t> counters = {
      {"decisions", decisions},
      {"initial_placements", st.initial_placements},
      {"timeout_escapes", st.timeout_escapes},
      {"failure_escapes", st.failure_escapes},
      {"congestion_reroutes", st.congestion_reroutes},
      {"blackhole_latches", st.blackhole_latches},
      {"latch_expiries", st.latch_expiries},
  };
  std::printf("hermesd: replayed %zu events (%llu decisions) in %.1fms wall\n", events.size(),
              static_cast<unsigned long long>(decisions), wall_ms);

  int failures = 0;
  for (const Expect& e : expects) {
    const auto it = counters.find(e.counter);
    if (it == counters.end()) die(e.line_no, "unknown counter '" + e.counter + "'");
    const std::uint64_t got = it->second;
    const bool ok = e.op == "==" ? got == e.value
                    : e.op == ">=" ? got >= e.value
                    : e.op == "<=" ? got <= e.value
                                   : (die(e.line_no, "unknown operator '" + e.op + "'"), false);
    if (!ok) {
      std::fprintf(stderr, "hermesd: EXPECT FAILED (line %d): %s = %llu, wanted %s %llu\n",
                   e.line_no, e.counter.c_str(), static_cast<unsigned long long>(got),
                   e.op.c_str(), static_cast<unsigned long long>(e.value));
      ++failures;
    }
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "hermesd: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fprintf(f, "{\n  \"trace\": \"%s\",\n  \"events\": %zu,\n  \"wall_ms\": %.3f,\n",
                 trace_path.c_str(), events.size(), wall_ms);
    std::fprintf(f, "  \"expect_failures\": %d,\n  \"counters\": {\n", failures);
    std::size_t i = 0;
    for (const auto& [name, value] : counters) {
      std::fprintf(f, "    \"%s\": %llu%s\n", name.c_str(),
                   static_cast<unsigned long long>(value),
                   ++i < counters.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("hermesd: wrote %s\n", json_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}
