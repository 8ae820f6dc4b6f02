#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hermes/engine/rng.hpp"

namespace hermes::workload {

/// Empirical flow-size distribution given as a piecewise-linear CDF
/// (size in bytes, cumulative probability). Sampling uses inverse
/// transform with linear interpolation inside each segment.
class SizeDist {
 public:
  using Point = std::pair<double, double>;  // (bytes, cdf)

  SizeDist(std::string name, std::vector<Point> points);

  /// Draw one flow size in bytes.
  [[nodiscard]] std::uint64_t sample(engine::Rng& rng) const;
  /// Analytic mean of the distribution in bytes.
  [[nodiscard]] double mean_bytes() const { return mean_; }
  /// CDF value at `bytes` (for reproducing Fig. 7).
  [[nodiscard]] double cdf(double bytes) const;
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

  /// The web-search workload (Alizadeh et al., DCTCP): many small flows,
  /// moderate heavy tail, mean ~1.7MB.
  [[nodiscard]] static SizeDist web_search();
  /// The data-mining workload (Greenberg et al., VL2): extremely skewed —
  /// ~80% of flows under 10KB while ~95% of bytes live in the few flows
  /// larger than 35MB. Mean ~12.6MB.
  [[nodiscard]] static SizeDist data_mining();
  /// A size-scaled copy (same shape, sizes multiplied by `factor`); used
  /// to shrink benchmark runtimes while preserving heavy-tailed shape.
  [[nodiscard]] SizeDist scaled(double factor) const;

 private:
  std::string name_;
  std::vector<Point> points_;
  double mean_ = 0;
};

}  // namespace hermes::workload
