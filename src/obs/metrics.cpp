#include "hermes/obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hermes::obs {

int Histogram::highest_bucket() const {
  for (int i = kBuckets - 1; i >= 0; --i) {
    if (counts_[i] != 0) return i;
  }
  return -1;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

std::uint64_t Histogram::bucket_upper(int i) {
  if (i >= 63) return std::numeric_limits<std::uint64_t>::max();
  return (std::uint64_t{1} << (i + 1)) - 1;
}

void MetricsRegistry::counter_fn(std::string_view name, CounterFn fn) {
  counters_.insert_or_assign(std::string(name), std::move(fn));
}

void MetricsRegistry::gauge_fn(std::string_view name, GaugeFn fn) {
  gauges_.insert_or_assign(std::string(name), std::move(fn));
}

void MetricsRegistry::sum_of(const std::vector<MetricsRegistry>& parts) {
  for (const MetricsRegistry& part : parts) {
    for (const auto& entry : part.counters_) {
      counter_fn(entry.first, [all = &parts, name = entry.first] {
        std::uint64_t total = 0;
        for (const MetricsRegistry& p : *all) {
          const auto it = p.counters_.find(name);
          if (it != p.counters_.end()) total += it->second();
        }
        return total;
      });
    }
    for (const auto& entry : part.gauges_) {
      gauge_fn(entry.first, [all = &parts, name = entry.first] {
        double total = 0;
        for (const MetricsRegistry& p : *all) {
          const auto it = p.gauges_.find(name);
          if (it != p.gauges_.end()) total += it->second();
        }
        return total;
      });
    }
    for (const auto& entry : part.histograms_) histograms_[entry.first] = Histogram{};
  }
  for (const MetricsRegistry& part : parts) {
    for (const auto& [name, h] : part.histograms_) histograms_[name].merge(h);
  }
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram{}).first->second;
}

namespace {

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n) < sizeof buf
                                 ? static_cast<std::size_t>(n)
                                 : sizeof buf - 1);
}

}  // namespace

std::string MetricsRegistry::snapshot_text() const {
  std::string out;
  for (const auto& [name, fn] : counters_) {
    append_fmt(out, "%s %" PRIu64 "\n", name.c_str(), fn());
  }
  for (const auto& [name, fn] : gauges_) {
    append_fmt(out, "%s %.6g\n", name.c_str(), fn());
  }
  for (const auto& [name, h] : histograms_) {
    append_fmt(out, "%s count=%" PRIu64 " sum=%" PRIu64 " min=%" PRIu64 " max=%" PRIu64 "\n",
               name.c_str(), h.count(), h.sum(), h.min(), h.max());
  }
  return out;
}

std::string MetricsRegistry::snapshot_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, fn] : counters_) {
    append_fmt(out, "%s\"%s\":%" PRIu64, first ? "" : ",", name.c_str(), fn());
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, fn] : gauges_) {
    append_fmt(out, "%s\"%s\":%.6g", first ? "" : ",", name.c_str(), fn());
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    append_fmt(out, "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"min\":%" PRIu64
                    ",\"max\":%" PRIu64 ",\"buckets\":[",
               first ? "" : ",", name.c_str(), h.count(), h.sum(), h.min(), h.max());
    first = false;
    bool first_b = true;
    const int top = h.highest_bucket();
    for (int i = 0; i <= top; ++i) {
      if (h.bucket_count(i) == 0) continue;
      append_fmt(out, "%s[%" PRIu64 ",%" PRIu64 "]", first_b ? "" : ",", Histogram::bucket_upper(i),
                 h.bucket_count(i));
      first_b = false;
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace hermes::obs
