#include "hermes/workload/size_dist.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hermes::workload {

SizeDist::SizeDist(std::string name, std::vector<Point> points)
    : name_{std::move(name)}, points_{std::move(points)} {
  if (points_.size() < 2) throw std::invalid_argument("CDF needs at least two points");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].first < points_[i - 1].first || points_[i].second < points_[i - 1].second)
      throw std::invalid_argument("CDF must be nondecreasing");
  }
  if (std::abs(points_.back().second - 1.0) > 1e-9)
    throw std::invalid_argument("CDF must end at probability 1");
  // Mean of the piecewise-linear distribution: each segment contributes
  // its probability mass times the segment midpoint.
  mean_ = points_.front().first * points_.front().second;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const double mass = points_[i].second - points_[i - 1].second;
    mean_ += mass * 0.5 * (points_[i].first + points_[i - 1].first);
  }
}

std::uint64_t SizeDist::sample(engine::Rng& rng) const {
  const double u = rng.uniform();
  auto it = std::lower_bound(points_.begin(), points_.end(), u,
                             [](const Point& p, double v) { return p.second < v; });
  if (it == points_.begin()) return static_cast<std::uint64_t>(std::max(1.0, it->first));
  if (it == points_.end()) return static_cast<std::uint64_t>(points_.back().first);
  const Point& hi = *it;
  const Point& lo = *(it - 1);
  const double span = hi.second - lo.second;
  const double frac = span > 0 ? (u - lo.second) / span : 1.0;
  const double bytes = lo.first + frac * (hi.first - lo.first);
  return static_cast<std::uint64_t>(std::max(1.0, bytes));
}

double SizeDist::cdf(double bytes) const {
  if (bytes <= points_.front().first) return points_.front().second;
  if (bytes >= points_.back().first) return 1.0;
  auto it = std::lower_bound(points_.begin(), points_.end(), bytes,
                             [](const Point& p, double v) { return p.first < v; });
  const Point& hi = *it;
  const Point& lo = *(it - 1);
  const double span = hi.first - lo.first;
  const double frac = span > 0 ? (bytes - lo.first) / span : 1.0;
  return lo.second + frac * (hi.second - lo.second);
}

SizeDist SizeDist::web_search() {
  // Approximation of the web-search (DCTCP) flow size CDF, Fig. 7a.
  return SizeDist{"web-search",
                  {{0, 0.0},
                   {10e3, 0.15},
                   {20e3, 0.20},
                   {30e3, 0.30},
                   {50e3, 0.40},
                   {80e3, 0.53},
                   {200e3, 0.60},
                   {1e6, 0.70},
                   {2e6, 0.80},
                   {5e6, 0.90},
                   {10e6, 0.97},
                   {30e6, 1.00}}};
}

SizeDist SizeDist::data_mining() {
  // Approximation of the data-mining (VL2) flow size CDF, Fig. 7b.
  return SizeDist{"data-mining",
                  {{0, 0.0},
                   {180, 0.10},
                   {250, 0.20},
                   {560, 0.30},
                   {900, 0.40},
                   {1100, 0.50},
                   {1870, 0.60},
                   {3160, 0.70},
                   {10e3, 0.80},
                   {400e3, 0.90},
                   {3.16e6, 0.95},
                   {100e6, 0.98},
                   {1e9, 1.00}}};
}

SizeDist SizeDist::scaled(double factor) const {
  std::vector<Point> pts = points_;
  for (auto& p : pts) p.first *= factor;
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, "-x%.2g", factor);
  return SizeDist{name_ + suffix, std::move(pts)};
}

}  // namespace hermes::workload
