// The figure runner's warm-up filter (figure.hpp).

#include <gtest/gtest.h>

#include <cstdint>

#include "figure.hpp"

TEST(FigureWarmup, StrandedFlowInsideWarmupStillCounts) {
  hermes::stats::FctCollector fct;
  for (const std::uint64_t id : {5, 41, 300}) {
    hermes::transport::FlowRecord r;
    r.id = id;
    r.finished = id != 41;  // 41 arrived during the warm-up and never finished
    fct.add(r);
  }
  fct.add_unfinished(1000, {}, hermes::sim::sec(1));  // never started: id 0
  const auto kept = hermes::bench::after_warmup(fct, 200);
  EXPECT_EQ(kept.total_flows(), 3u);  // 41, 300 and the never-started flow
  EXPECT_EQ(kept.unfinished_flows(), 2u);
}
