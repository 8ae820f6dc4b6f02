#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hermes::obs {

/// Log2-bucketed histogram for positive integer samples (latencies in
/// ns, latch lifetimes in us, bytes). 64 fixed buckets — bucket i holds
/// values whose highest set bit is i (bucket 0 additionally holds 0) —
/// so observe() is branch-light and never allocates.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  // HERMES_HOT
  void observe(std::uint64_t v) {
    ++counts_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v < min_ || count_ == 1) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] std::uint64_t bucket_count(int i) const { return counts_[i]; }

  /// Fold `other`'s samples into this histogram, as if each had been
  /// observed here.
  void merge(const Histogram& other);

  /// Index of the highest non-empty bucket, or -1 when empty.
  [[nodiscard]] int highest_bucket() const;

  [[nodiscard]] static int bucket_of(std::uint64_t v) {
    if (v == 0) return 0;
    int b = 0;
    while (v >>= 1) ++b;
    return b;
  }

  /// Inclusive upper bound of bucket i (2^(i+1) - 1, saturating).
  [[nodiscard]] static std::uint64_t bucket_upper(int i);

 private:
  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Registry of named metrics owned by a Scenario (never global: parallel
/// sweeps each get their own). Counters and gauges are *pull-model*: the
/// registering module hands over a closure reading its existing counter
/// (PortStats, ProbeStats, EventQueue::events_processed, ...) so the hot
/// path pays nothing it was not already paying. Histograms are push —
/// components call observe() on a pointer obtained at setup time.
///
/// Storage is std::map keyed by name, so snapshots iterate in sorted
/// name order and are byte-stable across runs at a fixed seed — the
/// determinism contract extends to telemetry output.
class MetricsRegistry {
 public:
  // hermeslint:allow(hotpath.hot-file-member) pull-model readers, invoked once per
  // snapshot/report — registration and reads are both off the per-packet path
  using CounterFn = std::function<std::uint64_t()>;
  // hermeslint:allow(hotpath.hot-file-member) same pull-model contract as CounterFn
  using GaugeFn = std::function<double()>;

  /// Register a pull counter. Re-registering a name replaces the reader.
  void counter_fn(std::string_view name, CounterFn fn);

  /// Register a pull gauge.
  void gauge_fn(std::string_view name, GaugeFn fn);

  /// Find-or-create a histogram. The reference is stable for the
  /// registry's lifetime (std::map node stability).
  Histogram& histogram(std::string_view name);

  /// Expose every metric of `parts` under its own name, summed across the
  /// parts (per-shard registries of one run; they must outlive this one).
  /// Counters and gauges become pull readers over the parts' readers;
  /// histograms, being push, are merged as they stand now — call again to
  /// refresh them.
  void sum_of(const std::vector<MetricsRegistry>& parts);

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// One "name value" line per metric, sorted by name within each of
  /// the three sections. Byte-stable at a fixed seed.
  [[nodiscard]] std::string snapshot_text() const;

  /// Same data as a JSON object {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,min,max,buckets:[[upper,n],...]}}}.
  /// Suitable for embedding in bench JSON output.
  [[nodiscard]] std::string snapshot_json() const;

 private:
  std::map<std::string, CounterFn, std::less<>> counters_;
  std::map<std::string, GaugeFn, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace hermes::obs
