// hermes_e2e: one run of one workload of the repository benchmark.
//
// run.py (beside this file) generates a workload's flows from its seed and
// hands this program only the resulting FlowSpec list. The program builds
// the workload's scenario through the harness's public entry points, times
// set-up and run() on the wall clock, and prints one JSON object on stdout:
// timings, peak RSS, the simulated FCT summary and FCT-CSV hash, the
// MetricsRegistry snapshot, the build record and, with --trace, per-layer
// span aggregates.
//
// Tracing places spans at layer boundaries from outside src/:
//   transport.rx  each host's Host::on_receive, calling HostStack::handle
//   lb.probe_rx   each rack agent's HostStack::on_probe_reply
//   lb.select / lb.ack / lb.loss
//                 a LoadBalancer decorator installed through
//                 ScenarioConfig::wrap_balancer (leaf-spine only: the
//                 sharded config has no such hook)
// Spans nest through one open-span stack; a span's self time is its
// duration minus its children's. Traced runs are single-threaded, so that
// stack is the only one and the self times add up to wall time.
//
// Usage:
//   hermes_e2e --fabric=leafspine|fattree<k> --scheme=ecmp|hermes
//              --flows=<file> --cap-ms=<ms> [--threads=N] [--warmup=N]
//              [--drop-spine=S --drop-rate=R] [--trace=<spans.json>]
// The flow file holds one flow per line, "id src dst size_bytes start_ns",
// ids ascending.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hermes/harness/scenario.hpp"
#include "hermes/harness/sharded_scenario.hpp"
#include "hermes/stats/csv.hpp"

namespace {

using namespace hermes;

// hermeslint:allow(determinism.clock) wall-clock timing is the benchmark's product; sim results never read this clock
using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_between(a, b)) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "hermes_e2e: %s\n", why.c_str());
  std::exit(2);
}

// --- span tracer ---------------------------------------------------------

enum Layer : std::uint8_t { kTransportRx, kLbSelect, kLbAck, kLbLoss, kLbProbeRx, kNumLayers };
constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "transport.rx", "lb.select", "lb.ack", "lb.loss", "lb.probe_rx"};

/// Span recorder for one thread. Keeps per-layer aggregates of every span
/// and the first kRawCap spans verbatim (layer, start, end, parent, flow).
class Tracer {
 public:
  static constexpr std::size_t kRawCap = 65536;

  Tracer() : origin_{Clock::now()} { raw_.reserve(kRawCap); }

  void begin(Layer layer, std::uint64_t flow) {
    std::int32_t raw = -1;
    if (raw_.size() < kRawCap) {
      raw = static_cast<std::int32_t>(raw_.size());
      raw_.push_back({layer, open_.empty() ? -1 : open_.back().raw, 0, 0, flow});
    }
    open_.push_back({layer, raw, 0, Clock::now()});
  }

  void end() {
    const Clock::time_point now = Clock::now();
    const Open o = open_.back();
    open_.pop_back();
    const std::int64_t dur = ns_between(o.start, now);
    Aggregate& a = agg_[o.layer];
    ++a.calls;
    a.total_ns += dur;
    a.self_ns += dur - o.child_ns;
    if (!open_.empty()) open_.back().child_ns += dur;
    if (o.raw >= 0) {
      Raw& r = raw_[static_cast<std::size_t>(o.raw)];
      r.start_ns = ns_between(origin_, o.start);
      r.end_ns = ns_between(origin_, now);
    }
  }

  /// {"<layer>": {"calls", "total_s", "self_s"}, ...}
  [[nodiscard]] std::string aggregates_json() const {
    std::string out = "{";
    for (int l = 0; l < kNumLayers; ++l) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\":{\"calls\":%llu,\"total_s\":%.9f,\"self_s\":%.9f}",
                    l == 0 ? "" : ",", kLayerNames[l],
                    static_cast<unsigned long long>(agg_[l].calls),
                    static_cast<double>(agg_[l].total_ns) * 1e-9,
                    static_cast<double>(agg_[l].self_ns) * 1e-9);
      out += buf;
    }
    return out + "}";
  }

  /// The aggregates plus the retained raw spans as one JSON document;
  /// span times are nanoseconds since the tracer was created.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"aggregates\":%s,\"spans_truncated\":%s,\"spans\":[",
                 aggregates_json().c_str(), raw_.size() < kRawCap ? "false" : "true");
    for (std::size_t i = 0; i < raw_.size(); ++i) {
      const Raw& r = raw_[i];
      std::fprintf(f, "%s[\"%s\",%lld,%lld,%d,%llu]", i == 0 ? "" : ",", kLayerNames[r.layer],
                   static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns),
                   r.parent, static_cast<unsigned long long>(r.flow));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Aggregate {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  struct Open {
    Layer layer;
    std::int32_t raw;
    std::int64_t child_ns;
    Clock::time_point start;
  };
  struct Raw {
    Layer layer;
    std::int32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t flow;
  };

  Clock::time_point origin_;
  std::vector<Open> open_;
  std::array<Aggregate, kNumLayers> agg_{};
  std::vector<Raw> raw_;
};

class Span {
 public:
  Span(Tracer& t, Layer layer, std::uint64_t flow) : t_{t} { t_.begin(layer, flow); }
  ~Span() { t_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

 private:
  Tracer& t_;
};

/// Times the balancer's decision and feedback calls; forwards all seven
/// LoadBalancer virtuals unchanged.
class TimedLb final : public lb::LoadBalancer {
 public:
  TimedLb(Tracer& t, std::unique_ptr<lb::LoadBalancer> inner)
      : t_{t}, inner_{std::move(inner)} {}

  int select_path(lb::FlowCtx& f, const net::Packet& p) override {
    const Span s{t_, kLbSelect, f.flow_id};
    return inner_->select_path(f, p);
  }
  void on_ack(lb::FlowCtx& f, const net::Packet& a) override {
    const Span s{t_, kLbAck, f.flow_id};
    inner_->on_ack(f, a);
  }
  void on_data_arrival(const net::Packet& d) override { inner_->on_data_arrival(d); }
  void decorate_ack(const net::Packet& d, net::Packet& a) override { inner_->decorate_ack(d, a); }
  void on_timeout(lb::FlowCtx& f) override {
    const Span s{t_, kLbLoss, f.flow_id};
    inner_->on_timeout(f);
  }
  void on_retransmit(lb::FlowCtx& f, int path_id) override {
    const Span s{t_, kLbLoss, f.flow_id};
    inner_->on_retransmit(f, path_id);
  }
  void on_flow_complete(lb::FlowCtx& f) override { inner_->on_flow_complete(f); }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

 private:
  Tracer& t_;
  std::unique_ptr<lb::LoadBalancer> inner_;
};

/// Routes every host's deliveries through a transport.rx span, and every
/// rack agent's probe replies through an lb.probe_rx span.
template <typename ScenarioT>
void trace_hosts(Tracer& tracer, net::Fabric& fabric, ScenarioT& s) {
  for (int h = 0; h < fabric.num_hosts(); ++h) {
    transport::HostStack* st = &s.stack(h);
    fabric.host(h).on_receive = [tr = &tracer, st](net::Packet p, int) {
      const Span span{*tr, kTransportRx, p.flow_id};
      st->handle(std::move(p));
    };
    if (st->on_probe_reply) {
      st->on_probe_reply = [tr = &tracer, inner = std::move(st->on_probe_reply)](
                               const net::Packet& p) {
        const Span span{*tr, kLbProbeRx, p.flow_id};
        inner(p);
      };
    }
  }
}

// --- command line and flow input ------------------------------------------

struct Args {
  std::string fabric;
  harness::Scheme scheme = harness::Scheme::kEcmp;
  std::string flows_path;
  std::int64_t cap_ms = 0;
  unsigned threads = 1;
  std::uint64_t warmup = 0;
  int drop_spine = -1;
  double drop_rate = 0;
  std::string trace_path;
};

bool take(const char* arg, const char* key, std::string& out) {
  const std::size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) != 0) return false;
  out = arg + n;
  return true;
}

long long parse_count(const std::string& v, const char* what) {
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || x < 0) fail(std::string("bad ") + what + ": " + v);
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (take(arg, "--fabric=", v)) {
      a.fabric = v;
    } else if (take(arg, "--scheme=", v)) {
      if (v == "ecmp") {
        a.scheme = harness::Scheme::kEcmp;
      } else if (v == "hermes") {
        a.scheme = harness::Scheme::kHermes;
      } else {
        fail("unknown scheme " + v);
      }
    } else if (take(arg, "--flows=", v)) {
      a.flows_path = v;
    } else if (take(arg, "--cap-ms=", v)) {
      a.cap_ms = parse_count(v, "--cap-ms");
    } else if (take(arg, "--threads=", v)) {
      a.threads = static_cast<unsigned>(parse_count(v, "--threads"));
    } else if (take(arg, "--warmup=", v)) {
      a.warmup = static_cast<std::uint64_t>(parse_count(v, "--warmup"));
    } else if (take(arg, "--drop-spine=", v)) {
      a.drop_spine = static_cast<int>(parse_count(v, "--drop-spine"));
    } else if (take(arg, "--drop-rate=", v)) {
      char* end = nullptr;
      a.drop_rate = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.drop_rate >= 0 && a.drop_rate <= 1)) {
        fail("bad --drop-rate: " + v);
      }
    } else if (take(arg, "--trace=", v)) {
      a.trace_path = v;
    } else {
      fail(std::string("unknown argument ") + arg);
    }
  }
  if (a.flows_path.empty() || a.cap_ms <= 0) fail("--flows and --cap-ms are required");
  if (a.threads == 0 || a.threads > 1024) fail("--threads must be in [1, 1024]");
  if (!a.trace_path.empty() && a.threads != 1) fail("traced runs are single-threaded");
  return a;
}

std::vector<transport::FlowSpec> read_flows(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) fail("cannot open " + path);
  std::vector<transport::FlowSpec> flows;
  unsigned long long id = 0;
  unsigned long long size = 0;
  long long start = 0;
  long long src = 0;
  long long dst = 0;
  int n = 0;
  while ((n = std::fscanf(f, "%llu %lld %lld %llu %lld", &id, &src, &dst, &size, &start)) == 5) {
    if (src < 0 || dst < 0 || src > INT32_MAX || dst > INT32_MAX) {
      fail("host id out of range in flow " + std::to_string(id));
    }
    transport::FlowSpec spec;
    spec.id = id;
    spec.src = static_cast<std::int32_t>(src);
    spec.dst = static_cast<std::int32_t>(dst);
    spec.size = size;
    spec.start = sim::SimTime::nanoseconds(start);
    flows.push_back(spec);
  }
  std::fclose(f);
  if (n != EOF || flows.empty()) fail("malformed or empty flow file " + path);
  return flows;
}

/// Rejects flows the fabric cannot carry: endpoints out of range or under
/// one leaf, empty flows, negative starts, ids not strictly ascending.
void check_flows(const std::vector<transport::FlowSpec>& flows, const net::Fabric& fabric) {
  std::uint64_t prev_id = 0;
  for (const transport::FlowSpec& f : flows) {
    const bool ok = f.src >= 0 && f.dst >= 0 && f.src < fabric.num_hosts() &&
                    f.dst < fabric.num_hosts() && fabric.leaf_of(f.src) != fabric.leaf_of(f.dst) &&
                    f.size > 0 && f.start >= sim::SimTime::zero() && f.id > prev_id;
    if (!ok) fail("invalid flow " + std::to_string(f.id));
    prev_id = f.id;
  }
}

// --- one run -------------------------------------------------------------

struct Outcome {
  double setup_s = 0;
  double run_s = 0;
  double setup_rss_mb = 0;
  double peak_rss_mb = 0;
  unsigned threads = 1;
  std::string metrics_json;
  stats::FctCollector fct;
};

net::Fabric& fabric_of(harness::Scenario& s) { return s.topology(); }
net::Fabric& fabric_of(harness::ShardedScenario& s) { return s.fabric(); }
unsigned threads_of(harness::Scenario&) { return 1; }
unsigned threads_of(harness::ShardedScenario& s) { return s.threads_used(); }

/// Set-ups timed per process; setup_s is their median. One cold set-up
/// alone spreads too widely from run to run for its bound.
constexpr int kSetups = 3;

/// Set-up spans scenario construction, flow scheduling, fault
/// installation and (traced) hook installation. It is repeated kSetups
/// times, each scenario destroyed untimed before the next is built; the
/// last one runs, and run() is timed alone.
template <typename ScenarioT, typename ConfigT>
Outcome run_scenario(const ConfigT& cfg, const Args& a,
                     const std::vector<transport::FlowSpec>& flows, Tracer* tracer) {
  Outcome o;
  std::unique_ptr<ScenarioT> s;
  std::array<double, kSetups> setup_s{};
  for (double& took : setup_s) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = std::make_unique<ScenarioT>(cfg);
    net::Fabric& fabric = fabric_of(*s);
    check_flows(flows, fabric);
    s->add_flows(flows);
    if (a.drop_spine >= 0) {
      if (a.drop_spine >= fabric.num_spines()) fail("--drop-spine out of range");
      fabric.spine(a.drop_spine)
          .set_failure({.blackhole = nullptr, .random_drop_rate = a.drop_rate});
    }
    if (tracer != nullptr) trace_hosts(*tracer, fabric, *s);
    took = seconds_between(t0, Clock::now());
  }
  std::sort(setup_s.begin(), setup_s.end());
  o.setup_s = setup_s[kSetups / 2];
  o.setup_rss_mb = peak_rss_mb();
  const Clock::time_point t1 = Clock::now();
  o.fct = s->run();
  const Clock::time_point t2 = Clock::now();
  o.peak_rss_mb = peak_rss_mb();
  o.run_s = seconds_between(t1, t2);
  o.threads = threads_of(*s);
  o.metrics_json = s->metrics().snapshot_json();
  return o;
}

Outcome run(const Args& a, const std::vector<transport::FlowSpec>& flows, Tracer* tracer) {
  const sim::SimTime cap = sim::msec(a.cap_ms);
  if (a.fabric == "leafspine") {
    harness::ScenarioConfig cfg;  // topology defaults: the paper's §5.3 8x8 fabric
    cfg.scheme = a.scheme;
    cfg.max_sim_time = cap;
    if (tracer != nullptr) {
      cfg.wrap_balancer = [tracer](sim::Simulator&, net::Topology&,
                                   std::unique_ptr<lb::LoadBalancer> inner) {
        return std::unique_ptr<lb::LoadBalancer>{
            std::make_unique<TimedLb>(*tracer, std::move(inner))};
      };
    }
    return run_scenario<harness::Scenario>(cfg, a, flows, tracer);
  }
  if (a.fabric.rfind("fattree", 0) == 0) {
    harness::ShardedScenarioConfig cfg;
    cfg.fabric.k = static_cast<int>(parse_count(a.fabric.substr(7), "fat-tree k"));
    if (cfg.fabric.k < 4 || cfg.fabric.k > 64 || cfg.fabric.k % 2 != 0) {
      fail("fat-tree k must be even and in [4, 64]");
    }
    cfg.scheme = a.scheme;
    cfg.max_sim_time = cap;
    cfg.num_shards = cfg.fabric.k;  // one shard per pod
    cfg.threads = a.threads;
    return run_scenario<harness::ShardedScenario>(cfg, a, flows, tracer);
  }
  fail("unknown fabric " + a.fabric);
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const std::vector<transport::FlowSpec> flows = read_flows(a.flows_path);
  std::unique_ptr<Tracer> tracer = a.trace_path.empty() ? nullptr : std::make_unique<Tracer>();
  const Outcome o = run(a, flows, tracer.get());

  // Every generated flow must come back as exactly one record.
  std::vector<std::uint64_t> ids;
  ids.reserve(o.fct.records().size());
  for (const transport::FlowRecord& r : o.fct.records()) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  std::size_t missing = 0;
  for (const transport::FlowSpec& f : flows) {
    if (!std::binary_search(ids.begin(), ids.end(), f.id)) ++missing;
  }

  // FCT over the flows after the warm-up prefix; unfinished flows count
  // at the cap.
  stats::FctCollector measured;
  sim::SimTime sim_end{};
  for (const transport::FlowRecord& r : o.fct.records()) {
    if (r.id > a.warmup) measured.add(r);
    sim_end = std::max(sim_end, r.end);
  }
  const stats::FctSummary fct = measured.overall_with_unfinished();

  if (tracer && !tracer->write(a.trace_path)) fail("cannot write " + a.trace_path);

#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf(
      "{\"fabric\":\"%s\",\"scheme\":\"%s\",\"threads\":%u,\"flows\":%zu,\"records\":%zu,"
      "\"missing\":%zu,\"unfinished\":%zu,\"sim_end_us\":%.3f,\"setup_s\":%.9f,\"run_s\":%.9f,"
      "\"setup_rss_mb\":%.3f,\"peak_rss_mb\":%.3f,"
      "\"fct\":{\"count\":%zu,\"mean_us\":%.3f,\"p50_us\":%.3f,\"p99_us\":%.3f},"
      "\"fct_hash\":\"%016llx\","
      "\"build\":{\"compiler\":\"%s\",\"build_type\":\"%s\",\"ndebug\":%s,\"sanitizer\":%s},"
      "\"metrics\":%s,\"spans\":%s}\n",
      a.fabric.c_str(), harness::to_string(a.scheme), o.threads, flows.size(),
      o.fct.records().size(), missing, o.fct.unfinished_flows(), sim_end.to_usec(), o.setup_s,
      o.run_s, o.setup_rss_mb, o.peak_rss_mb, fct.count, fct.mean_us, fct.p50_us, fct.p99_us,
      static_cast<unsigned long long>(fnv1a64(stats::to_csv(o.fct))), kCompiler,
      HERMES_E2E_BUILD_TYPE, ndebug ? "true" : "false", sanitized() ? "true" : "false",
      o.metrics_json.c_str(), tracer ? tracer->aggregates_json().c_str() : "null");
  return 0;
}
