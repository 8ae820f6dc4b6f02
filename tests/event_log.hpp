#pragma once

// A shared event target for the event-queue tests: each event records
// the id it was scheduled with, so one log holds the firing order.

#include <cstdint>
#include <vector>

namespace hermes::sim {

struct Log {
  std::vector<int> fired;
  void on(std::uint64_t id) { fired.push_back(static_cast<int>(id)); }
};

}  // namespace hermes::sim
