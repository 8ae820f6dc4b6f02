// Microbenchmarks of the simulator substrate: event-queue throughput
// with packet-hop-sized callback captures, cancellable-timer churn, the
// event queue's retained memory under bursty probe ticks, DRE updates,
// route construction, and the end-to-end packet pipeline rate.
// These bound how much simulated traffic the experiment harness can push
// per wall-clock second.
//
// Unlike the figure benches this binary is self-timed (no
// google-benchmark): it overrides global operator new/delete to count
// heap allocations — the point of the inline-storage event path is
// "zero allocations per event", and that is asserted here as a number,
// not inferred from a profiler. Results go to stdout and to a
// machine-readable JSON file (--json=<path>, default BENCH_core.json).
//
// Usage: bench_core_micro [--smoke] [--json=<path>]
//   --smoke: tiny iteration counts — a CI liveness check, not a
//   measurement.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "hermes/engine/config.hpp"
#include "hermes/engine/decision.hpp"
#include "hermes/engine/engine.hpp"
#include "hermes/engine/time.hpp"
#include "hermes/harness/scenario.hpp"
#include "hermes/engine/rate.hpp"
#include "hermes/net/topology.hpp"
#include "hermes/obs/flight_recorder.hpp"
#include "hermes/obs/records.hpp"
#include "hermes/sim/simulator.hpp"

// ---------------------------------------------------------------------------
// Heap accounting: every operator new in the process bumps a counter.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace hermes;
// hermeslint:allow(determinism.clock) the microbench reports real wall-clock throughput (events/s, pkts/s); sim results never read this clock
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Heap bytes currently in use (allocator's view), or 0 when the libc
/// cannot report it. mallinfo2 is glibc >= 2.33; the older mallinfo
/// truncates to int and is not worth a wrong number. uordblks covers
/// arena allocations, hblkhd the large mmap'd blocks (big vectors).
std::size_t heap_in_use_bytes() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
  const auto mi = mallinfo2();
  return static_cast<std::size_t>(mi.uordblks) + static_cast<std::size_t>(mi.hblkhd);
#else
  return 0;
#endif
}

struct Metric {
  std::string bench;
  std::string name;
  double value;
};
std::vector<Metric>& metrics() {
  static std::vector<Metric> m;
  return m;
}
void record(const char* bench, const char* name, double value) {
  metrics().push_back({bench, name, value});
}

/// Stand-in for a packet-hop capture: the deliver/finish lambdas on the
/// port hot path capture a handful of pointers/ints (bulky state lives
/// in the owning object — kInlineCallbackBytes is a deliberately tight
/// global budget). Sized to fill the budget so the bench measures the
/// worst admissible capture.
struct HopPayload {
  std::uint64_t words[(sim::EventQueue::kInlineCallbackBytes - sizeof(void*)) /
                      sizeof(std::uint64_t)] = {};
};
static_assert(sizeof(HopPayload) + sizeof(void*) <= sim::EventQueue::kInlineCallbackBytes);

std::uint64_t g_sink = 0;

/// Event-queue throughput with hop-sized captures: schedule `n` events
/// at pseudo-random times in a ~2ms window (spanning level-0 buckets)
/// and drain. This is the simulator's innermost loop.
void bench_event_queue_hot(int reps, int n) {
  sim::EventQueue q;
  std::uint64_t lcg = 12345;
  std::uint64_t allocs0 = 0;
  double heap_per_event = 0;
  double dt = 0;
  std::uint64_t events = 0;
  // Rep 0 warms bucket/due capacity and is excluded from the counters:
  // the claim under test is the *steady-state* cost.
  for (int rep = 0; rep < reps + 1; ++rep) {
    const bool timed = rep > 0;
    if (rep == 1) allocs0 = g_alloc_count.load(std::memory_order_relaxed);
    const std::size_t heap0 = rep == 0 ? heap_in_use_bytes() : 0;
    const auto t0 = Clock::now();
    const sim::SimTime base = q.now();
    for (int i = 0; i < n; ++i) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      HopPayload payload;
      payload.words[0] = lcg;
      q.post_at(base + sim::nsec(static_cast<std::int64_t>(lcg % 2'000'000)),
                [payload] { g_sink += payload.words[0]; });
    }
    if (rep == 0) {
      heap_per_event = static_cast<double>(heap_in_use_bytes() - heap0) / n;
    }
    q.run();
    if (timed) {
      dt += seconds_since(t0);
      events += static_cast<std::uint64_t>(n);
    }
  }
  const auto allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  const auto ev = static_cast<double>(events);
  record("event_queue_hot", "events_per_sec", ev / dt);
  record("event_queue_hot", "ns_per_event", dt * 1e9 / ev);
  record("event_queue_hot", "allocs_per_event_steady", static_cast<double>(allocs) / ev);
  record("event_queue_hot", "heap_bytes_per_stored_event", heap_per_event);
  std::printf("event_queue_hot       %10.0f events/s  %6.1f ns/event  %.4f allocs/event (steady)\n",
              ev / dt, dt * 1e9 / ev, static_cast<double>(allocs) / ev);
}

/// Cancellable-timer churn: the retransmission-timer pattern — schedule,
/// then cancel half before they fire. Steady state must not allocate:
/// timer records come from the pooled free-list.
void bench_timer_churn(int reps, int n) {
  std::vector<sim::EventQueue::Handle> handles(static_cast<std::size_t>(n));
  // One rep outside the timer: warm the slot pool and bucket capacity.
  sim::EventQueue q;
  std::uint64_t allocs0 = 0;
  double dt = 0;
  std::uint64_t fired = 0;
  for (int rep = 0; rep < reps + 1; ++rep) {
    const bool timed = rep > 0;
    if (timed && rep == 1) {
      allocs0 = g_alloc_count.load(std::memory_order_relaxed);
    }
    const auto t0 = Clock::now();
    const sim::SimTime base = q.now();
    for (int i = 0; i < n; ++i) {
      handles[static_cast<std::size_t>(i)] =
          q.schedule_at(base + sim::usec(1 + i % 100), [] { ++g_sink; });
    }
    for (int i = 0; i < n; i += 2) handles[static_cast<std::size_t>(i)].cancel();
    q.run();
    if (timed) {
      dt += seconds_since(t0);
      fired += static_cast<std::uint64_t>(n);
    }
  }
  const auto allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  const double events = static_cast<double>(fired);
  record("timer_churn", "timers_per_sec", events / dt);
  record("timer_churn", "ns_per_timer", dt * 1e9 / events);
  record("timer_churn", "allocs_per_timer_steady", static_cast<double>(allocs) / events);
  std::printf("timer_churn           %10.0f timers/s  %6.1f ns/timer  %.4f allocs/timer (steady)\n",
              events / dt, dt * 1e9 / events, static_cast<double>(allocs) / events);
}

/// Retained event-queue memory under the Hermes probe-tick pattern: a
/// tick every 500us posts four 512-event bursts a few microseconds
/// ahead, each filling one 256ns level-0 bucket (a k=16 shard's probe
/// tick puts up to ~500 events in one bucket). 500us is not a multiple
/// of the 262us level-0 lap, so the bursts drift through every bucket.
/// Reports the heap the queue still holds after the run per peak stored
/// event: wheel storage must follow the live events, not keep each
/// bucket's high water. Allocation accounting is deterministic, so
/// check_bench_regress.py gates the figure tightly.
void bench_event_queue_bursty(int ticks) {
  struct Ticker {
    sim::EventQueue q;
    int ticks_left = 0;
    std::size_t peak = 0;
    std::uint64_t fired = 0;
    void tick() {
      for (int b = 1; b <= 4; ++b) {
        for (int i = 0; i < 512; ++i) q.post_in(sim::usec(2 * b), [this] { ++fired; });
      }
      peak = std::max(peak, q.stored_events());
      if (--ticks_left > 0) q.post_in(sim::usec(500), [this] { tick(); });
    }
  };
  const std::size_t heap0 = heap_in_use_bytes();
  auto t = std::make_unique<Ticker>();
  t->ticks_left = ticks;
  const auto t0 = Clock::now();
  t->q.post_at(sim::SimTime::zero(), [tk = t.get()] { tk->tick(); });
  t->q.run();
  const double dt = seconds_since(t0);
  const double retained = static_cast<double>(heap_in_use_bytes() - heap0);
  const double per_peak = retained / static_cast<double>(t->peak);
  g_sink += t->fired;
  record("event_queue_bursty", "ns_per_event", dt * 1e9 / static_cast<double>(t->fired));
  record("event_queue_bursty", "peak_stored_events", static_cast<double>(t->peak));
  record("event_queue_bursty", "retained_heap_bytes_per_peak_event", per_peak);
  std::printf("event_queue_bursty    %6.1f ns/event  peak %zu stored  %.0f retained heap "
              "bytes/peak event\n",
              dt * 1e9 / static_cast<double>(t->fired), t->peak, per_peak);
}

/// End-to-end packet pipeline: one 10MB Hermes flow across a 2x2 fabric,
/// ~13700 packet events (data + ACKs) per rep.
void bench_packet_pipeline(int reps) {
  constexpr double kPacketsPerRep = 13700;
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  std::uint64_t events = 0;
  for (int rep = 0; rep < reps; ++rep) {
    harness::ScenarioConfig cfg;
    cfg.topo.num_leaves = 2;
    cfg.topo.num_spines = 2;
    cfg.topo.hosts_per_leaf = 1;
    cfg.scheme = harness::Scheme::kHermes;
    harness::Scenario s{cfg};
    s.add_flow(0, 1, 10'000'000, sim::SimTime::zero());
    const auto fct = s.run();
    g_sink += static_cast<std::uint64_t>(fct.overall().mean_us);
    events += s.simulator().events().events_processed();
  }
  const double dt = seconds_since(t0);
  const auto allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  const double pkts = kPacketsPerRep * reps;
  record("packet_pipeline_10mb", "packets_per_sec", pkts / dt);
  record("packet_pipeline_10mb", "ns_per_packet", dt * 1e9 / pkts);
  record("packet_pipeline_10mb", "allocs_per_packet", static_cast<double>(allocs) / pkts);
  record("packet_pipeline_10mb", "events_per_packet", static_cast<double>(events) / pkts);
  std::printf("packet_pipeline_10mb  %10.0f pkts/s    %6.1f ns/pkt    %.4f allocs/pkt\n",
              pkts / dt, dt * 1e9 / pkts, static_cast<double>(allocs) / pkts);
}

/// Warmed steady-state pipeline: one scenario constructed once, a warm
/// flow run to size every arena chunk, SoA ring and event bucket, then
/// `reps` measured flows reuse that capacity. This phase carries the
/// zero-alloc claim for the packet path as a hard assertion: with the
/// packet arena, index-ring queues and inline callbacks in place, the
/// only remaining allocations are per-flow endpoint setup (one TcpSender/
/// TcpReceiver pair and their map nodes per rep) — bounded at 0.01 per
/// packet, and a regression on the per-packet path blows well past that.
bool bench_packet_pipeline_steady(int reps) {
  constexpr double kPacketsPerRep = 13700;
  harness::ScenarioConfig cfg;
  cfg.topo.num_leaves = 2;
  cfg.topo.num_spines = 2;
  cfg.topo.hosts_per_leaf = 1;
  cfg.scheme = harness::Scheme::kHermes;
  cfg.max_sim_time = sim::sec(100);  // absolute cap; reps accumulate sim time
  harness::Scenario s{cfg};
  s.add_flow(0, 1, 10'000'000, sim::SimTime::zero());
  s.run();  // warm: grows rings, buckets and arena chunks exactly once
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    s.add_flow(0, 1, 10'000'000, s.simulator().now());
    const auto fct = s.run();
    g_sink += static_cast<std::uint64_t>(fct.overall().mean_us);
  }
  const double dt = seconds_since(t0);
  const auto allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  const double pkts = kPacketsPerRep * reps;
  const double allocs_per_pkt = static_cast<double>(allocs) / pkts;
  record("packet_pipeline_steady", "packets_per_sec", pkts / dt);
  record("packet_pipeline_steady", "ns_per_packet", dt * 1e9 / pkts);
  record("packet_pipeline_steady", "allocs_per_packet", allocs_per_pkt);
  std::printf("packet_pipeline_steady%10.0f pkts/s    %6.1f ns/pkt    %.4f allocs/pkt (max 0.01)\n",
              pkts / dt, dt * 1e9 / pkts, allocs_per_pkt);
  if (allocs_per_pkt > 0.01) {
    std::fprintf(stderr, "FAIL: steady-state packet pipeline allocated %.4f times per packet "
                         "(budget 0.01) — the zero-alloc packet path is regressing\n",
                 allocs_per_pkt);
    return false;
  }
  return true;
}

/// Flight-recorder append: the claim is *literal zero* heap allocations
/// per record once the ring exists — append is a 64-byte struct copy
/// into preallocated power-of-two storage. Like the event-queue claim,
/// this is asserted as a number, not inferred: a nonzero count fails the
/// bench binary.
bool bench_recorder_append(int n) {
  obs::FlightRecorder rec{1u << 16};
  const auto name = rec.intern("leaf0.up0");
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    auto r = obs::make_record(obs::RecordKind::kPacket,
                              static_cast<std::uint64_t>(i) * 800, name,
                              static_cast<std::uint64_t>(i) & 7);
    r.u.packet.packet_id = static_cast<std::uint64_t>(i);
    r.u.packet.size = 1500;
    rec.append(r);
  }
  const double dt = seconds_since(t0);
  const auto allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  g_sink += rec.total_appended();
  record("flight_recorder_append", "ns_per_record", dt * 1e9 / n);
  record("flight_recorder_append", "allocs_total", static_cast<double>(allocs));
  std::printf("flight_recorder_append%38.1f ns/record  %" PRIu64 " allocs (must be 0)\n",
              dt * 1e9 / n, allocs);
  if (allocs != 0) {
    std::fprintf(stderr, "FAIL: flight-recorder append heap-allocated %" PRIu64
                         " time(s) over %d records\n",
                 allocs, n);
    return false;
  }
  return true;
}

/// Zero-overhead-when-disabled proof, measured in the full packet
/// pipeline rather than a microloop: identical 10MB-flow scenarios run
/// with observability off and on. Off must allocate *exactly* the same
/// deterministic count run to run (each instrumented site is one
/// predicted-not-taken null check); on may add only the O(1) setup cost
/// (ring + name table) — never allocations proportional to the ~13700
/// packets per rep.
bool bench_obs_pipeline() {
  constexpr double kPacketsPerRep = 13700;
  const auto run_once = [&](bool obs_on) -> std::uint64_t {
    const auto a0 = g_alloc_count.load(std::memory_order_relaxed);
    harness::ScenarioConfig cfg;
    cfg.topo.num_leaves = 2;
    cfg.topo.num_spines = 2;
    cfg.topo.hosts_per_leaf = 1;
    cfg.scheme = harness::Scheme::kHermes;
    cfg.obs.enabled = obs_on;
    harness::Scenario s{cfg};
    s.add_flow(0, 1, 10'000'000, sim::SimTime::zero());
    const auto fct = s.run();
    g_sink += static_cast<std::uint64_t>(fct.overall().mean_us);
    return g_alloc_count.load(std::memory_order_relaxed) - a0;
  };
  run_once(false);  // warm malloc arenas and static tables
  const std::uint64_t off_a = run_once(false);
  const std::uint64_t off_b = run_once(false);
  const std::uint64_t on = run_once(true);
  const std::uint64_t setup = on > off_b ? on - off_b : 0;
  record("obs_pipeline", "allocs_per_rep_obs_off", static_cast<double>(off_b));
  record("obs_pipeline", "allocs_per_rep_obs_on", static_cast<double>(on));
  record("obs_pipeline", "extra_allocs_per_packet_obs_on", setup / kPacketsPerRep);
  std::printf("obs_pipeline          obs-off %" PRIu64 " allocs/rep, obs-on +%" PRIu64
              " (setup only; %.4f/pkt)\n",
              off_b, setup, setup / kPacketsPerRep);
  bool ok = true;
  if (off_a != off_b) {
    std::fprintf(stderr, "FAIL: disabled-observability pipeline allocation count is not "
                         "deterministic (%" PRIu64 " vs %" PRIu64 ")\n",
                 off_a, off_b);
    ok = false;
  }
  // Setup cost: the ring (one vector) + interned names + bookkeeping.
  // Anything bigger means a per-packet site is allocating.
  if (setup > 64) {
    std::fprintf(stderr, "FAIL: enabling observability added %" PRIu64
                         " allocations per rep — instrumentation is allocating "
                         "per packet, not per scenario\n",
                 setup);
    ok = false;
  }
  return ok;
}

/// The extracted decision engine's hot path: Algorithm 2 per-packet
/// decisions over an 8-path group pair with mixed sensed conditions
/// (good / gray / congested) and a 64-flow working set alternating
/// established forwarding with fresh placements. decide() is tagged
/// HERMES_HOT and must be *literally* allocation-free in steady state —
/// the PathSet is sized by the embedder up front, candidate scans are
/// in-place, and the tie-break RNG draws from preallocated state. Like
/// the recorder-append claim this is asserted as a number.
bool bench_engine_decide(int n) {
  engine::Config cfg;
  cfg.t_rtt_low = engine::usec(60);
  cfg.t_rtt_high = engine::usec(180);
  cfg.delta_rtt = engine::usec(80);
  cfg.reroute_rate_limit_bps = 1e12;  // rate gate open: scans always run
  engine::Engine eng{cfg, 2, /*rng_seed=*/42};
  eng.path_set(0, 1).ensure(8);
  // Sensed mix: paths 0-3 good, 4-5 unsampled gray, 6-7 congested.
  for (int rep = 0; rep < 200; ++rep) {
    for (int li = 0; li < 4; ++li) eng.on_ack(0, 1, li, 1, 2, true, engine::usec(35 + li), false);
    for (int li = 6; li < 8; ++li) eng.on_ack(0, 1, li, 1, 2, true, engine::usec(250), true);
  }

  engine::FlowView flows[64];
  for (int i = 0; i < 64; ++i) {
    flows[i].flow_id = static_cast<std::uint64_t>(i + 1);
    flows[i].src = 1;
    flows[i].dst = 2;
    flows[i].src_group = 0;
    flows[i].dst_group = 1;
    flows[i].bytes_sent = 1 << 20;  // past S: the reroute gates engage
  }
  engine::TimeNs t = 0;
  const auto step = [&](int i) {
    engine::FlowView& f = flows[i & 63];
    t += 120;
    if ((i & 1023) == 0) f.has_sent = false;  // periodic fresh placement
    const int chosen = eng.decide(f, 1500, t);
    f.cur_local = chosen;
    f.has_sent = true;
    g_sink += static_cast<std::uint64_t>(chosen);
  };
  for (int i = 0; i < n / 10; ++i) step(i);  // warm every branch once

  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) step(i);
  const double dt = seconds_since(t0);
  const auto allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;

  record("engine_decide", "decisions_per_sec", n / dt);
  record("engine_decide", "ns_per_decision", dt * 1e9 / n);
  record("engine_decide", "allocs_per_decision_steady",
         static_cast<double>(allocs) / n);
  std::printf("engine_decide      %12.0f decisions/s  %6.1f ns/decision  %" PRIu64
              " allocs (must be 0)\n",
              n / dt, dt * 1e9 / n, allocs);
  if (allocs != 0) {
    std::fprintf(stderr, "FAIL: engine decide() heap-allocated %" PRIu64
                         " time(s) over %d decisions — the HERMES_HOT "
                         "allocation-free contract regressed\n",
                 allocs, n);
    return false;
  }
  return true;
}

void bench_dre(int n) {
  engine::Dre dre{engine::usec(50), 0.1};
  engine::TimeNs t = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    dre.add(1500, t);
    g_sink += static_cast<std::uint64_t>(dre.rate_bps(t));
    t += engine::nsec(1200);
  }
  const double dt = seconds_since(t0);
  record("dre_add_read", "ns_per_op", dt * 1e9 / n);
  std::printf("dre_add_read          %38.1f ns/op\n", dt * 1e9 / n);
}

void bench_route(int n) {
  sim::Simulator simulator{1};
  net::Topology topo{simulator, net::TopologyConfig{}};
  // Host 100 sits under leaf 6; forward_route wants *global* path ids,
  // so cycle through the (0,6) pair's FabricPath::id values (indices
  // 0..n-1 would address another pair's paths).
  const auto& paths = topo.paths_between_leaves(0, 6);
  const int num_paths = static_cast<int>(paths.size());
  int path = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    g_sink += topo.forward_route(0, 100, paths[static_cast<std::size_t>(path)].id).len;
    path = (path + 1) % num_paths;
  }
  const double dt = seconds_since(t0);
  record("route_construction", "ns_per_op", dt * 1e9 / n);
  std::printf("route_construction    %38.1f ns/op\n", dt * 1e9 / n);
}

void write_json(const std::string& path, bool smoke) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_core_micro\",\n");
#ifdef NDEBUG
  std::fprintf(f, "  \"build\": \"optimized\",\n");
#else
  std::fprintf(f, "  \"build\": \"debug\",\n");
#endif
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"heap_in_use_bytes_end\": %zu,\n", heap_in_use_bytes());
  std::fprintf(f, "  \"total_heap_allocs\": %" PRIu64 ",\n",
               g_alloc_count.load(std::memory_order_relaxed));
  std::fprintf(f, "  \"total_heap_bytes\": %" PRIu64 ",\n",
               g_alloc_bytes.load(std::memory_order_relaxed));
  std::fprintf(f, "  \"metrics\": {\n");
  std::string last_bench;
  for (std::size_t i = 0; i < metrics().size(); ++i) {
    const Metric& m = metrics()[i];
    if (m.bench != last_bench) {
      if (!last_bench.empty()) std::fprintf(f, "\n    },\n");
      std::fprintf(f, "    \"%s\": {\n", m.bench.c_str());
      last_bench = m.bench;
    } else {
      std::fprintf(f, ",\n");
    }
    std::fprintf(f, "      \"%s\": %.6g", m.name.c_str(), m.value);
  }
  if (!last_bench.empty()) std::fprintf(f, "\n    }\n");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
#ifndef NDEBUG
  std::printf("note: unoptimized build — numbers are not comparable\n");
#endif
  // Iteration counts: sized for stable numbers in a Release build
  // (~10s total); --smoke only proves the paths run.
  bench_event_queue_hot(smoke ? 1 : 40, smoke ? 2000 : 100'000);
  bench_timer_churn(smoke ? 1 : 40, smoke ? 2000 : 100'000);
  // Same size in --smoke: the retained-bytes figure is gated from the
  // smoke JSON too, and it depends on the burst shape, not on timing.
  bench_event_queue_bursty(2000);
  bench_packet_pipeline(smoke ? 1 : 30);
  bool ok = bench_packet_pipeline_steady(smoke ? 2 : 30);
  ok = bench_recorder_append(smoke ? 10'000 : 5'000'000) && ok;
  ok = bench_obs_pipeline() && ok;
  ok = bench_engine_decide(smoke ? 20'000 : 5'000'000) && ok;
  bench_dre(smoke ? 10'000 : 20'000'000);
  bench_route(smoke ? 10'000 : 10'000'000);
  write_json(json_path, smoke);
  // Defeat whole-program DCE of the measured work.
  if (g_sink == 0xdeadbeef) std::printf("sink %llu\n", static_cast<unsigned long long>(g_sink));
  return ok ? 0 : 1;
}
