#pragma once

#include <cstdint>
#include <random>
#include <utility>

#include "hermes/sim/event_queue.hpp"
#include "hermes/sim/time.hpp"

namespace hermes::sim {

/// The simulation context shared by every component: a clock, an event
/// scheduler, and a master random seed from which components derive
/// independent deterministic streams.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : salt_{std::mt19937_64{seed}()} {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return queue_.now(); }
  [[nodiscard]] EventQueue& events() { return queue_; }

  /// Fire-and-forget scheduling (packet pipeline hot path). The direct
  /// form, `at<&T::f>(t, obj, arg)`, is what src/ uses; closures are for
  /// tests, benches and examples (see EventQueue).
  template <auto Method, typename T>
  void at(SimTime t, T* obj, std::uint64_t arg = 0) {
    queue_.post_at<Method>(t, obj, arg);
  }
  template <auto Method, typename T>
  void after(SimTime delay, T* obj, std::uint64_t arg = 0) {
    queue_.post_at<Method>(now() + delay, obj, arg);
  }
  void at(SimTime t, EventQueue::Callback cb) { queue_.post_at(t, std::move(cb)); }
  void after(SimTime delay, EventQueue::Callback cb) { queue_.post_in(delay, std::move(cb)); }

  /// Cancellable timers (RTO, pacing), in the same two forms.
  template <auto Method, typename T>
  EventQueue::Handle timer_at(SimTime t, T* obj, std::uint64_t arg = 0) {
    return queue_.schedule_at<Method>(t, obj, arg);
  }
  template <auto Method, typename T>
  EventQueue::Handle timer_after(SimTime delay, T* obj, std::uint64_t arg = 0) {
    return queue_.schedule_at<Method>(now() + delay, obj, arg);
  }
  EventQueue::Handle timer_at(SimTime t, EventQueue::Callback cb) {
    return queue_.schedule_at(t, std::move(cb));
  }
  EventQueue::Handle timer_after(SimTime delay, EventQueue::Callback cb) {
    return queue_.schedule_in(delay, std::move(cb));
  }

  void run() { queue_.run(); }
  void run_until(SimTime t) { queue_.run_until(t); }
  void stop() { queue_.stop(); }

  /// Seed of the independent deterministic random stream of a named
  /// component: `engine::Rng{sim.rng_seed(salt)}`. Fixed for a given
  /// (scenario seed, salt), and equal to what `engine::Rng{seed}.fork(salt)`
  /// seeds its child with.
  [[nodiscard]] std::uint64_t rng_seed(std::uint64_t salt) const {
    std::uint64_t x = salt_ ^ (salt * 0x9E3779B97F4A7C15ULL);
    x += 0x9E3779B97F4A7C15ULL;  // splitmix64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

 private:
  EventQueue queue_;
  std::uint64_t salt_;  ///< first draw of the seed's generator
};

}  // namespace hermes::sim
