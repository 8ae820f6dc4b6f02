// Figure 7: traffic distributions used for evaluation.
//
// Prints the CDFs of the web-search and data-mining flow-size
// distributions and checks the headline skew statistics the paper quotes
// (data-mining: ~95% of bytes in the ~3.6% of flows larger than 35MB).

#include <cstddef>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "hermes/sim/thread_pool.hpp"
#include "hermes/engine/rng.hpp"
#include "hermes/stats/table.hpp"
#include "hermes/workload/size_dist.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  const double scale = bench::parse_scale(argc, argv);

  bench::print_header("Figure 7: workload flow-size CDFs",
                      "web-search and data-mining are both heavy-tailed; data-mining is far "
                      "more skewed (95% of bytes in ~3.6% of flows that are >35MB)");

  const auto ws = workload::SizeDist::web_search();
  const auto dm = workload::SizeDist::data_mining();

  stats::Table t({"size", "web-search CDF", "data-mining CDF"});
  for (double b : {1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}) {
    char label[32];
    if (b >= 1e6) {
      std::snprintf(label, sizeof label, "%.0fMB", b / 1e6);
    } else {
      std::snprintf(label, sizeof label, "%.0fKB", b / 1e3);
    }
    t.add_row({label, stats::Table::num(ws.cdf(b), 3), stats::Table::num(dm.cdf(b), 3)});
  }
  t.print();

  std::printf("\nmean flow size: web-search=%.2fMB data-mining=%.2fMB\n", ws.mean_bytes() / 1e6,
              dm.mean_bytes() / 1e6);

  // Empirical skew check by sampling, fanned out over a ThreadPool.
  // The chunk count is fixed (not the thread count) and every chunk
  // draws from its own forked RNG stream, so the sampled numbers are
  // identical however many threads execute; partials are combined in
  // chunk order so the floating-point sums are too.
  const int n = bench::scaled(200000, scale);
  constexpr int kChunks = 64;
  struct Partial {
    double total = 0, big_bytes = 0;
    int big_flows = 0, samples = 0;
  };
  const sim::ThreadPool runner;
  const auto partials = runner.map<Partial>(kChunks, [&](std::size_t chunk) {
    const int begin = static_cast<int>(chunk) * n / kChunks;
    const int end = (static_cast<int>(chunk) + 1) * n / kChunks;
    engine::Rng rng = engine::Rng{1}.fork(chunk);
    Partial p;
    for (int i = begin; i < end; ++i) {
      const auto s = static_cast<double>(dm.sample(rng));
      p.total += s;
      ++p.samples;
      if (s > 35e6) {
        p.big_bytes += s;
        ++p.big_flows;
      }
    }
    return p;
  });
  double total = 0, big_bytes = 0;
  int big_flows = 0;
  for (const Partial& p : partials) {
    total += p.total;
    big_bytes += p.big_bytes;
    big_flows += p.big_flows;
  }
  std::printf("data-mining sampled skew: %.1f%% of flows are >35MB and carry %.1f%% of bytes\n",
              100.0 * big_flows / n, 100.0 * big_bytes / total);
  std::printf("(paper: ~3.6%% of flows carry ~95%% of bytes)\n");
  return 0;
}
