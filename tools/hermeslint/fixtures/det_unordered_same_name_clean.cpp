// Fixture: a std::vector named like the tree's unordered containers
// (FlowBender, Spray and Clove each hold a std::unordered_map state_).
// This file declares its own state_, and that declaration is the one its
// uses see, so walking it is order-safe. Never compiled.
#include <numeric>
#include <vector>

struct Counters {
  std::vector<int> state_;
};

int total(const Counters& c) {
  int sum = 0;
  for (const int v : c.state_) sum += v;
  return sum + std::accumulate(c.state_.begin(), c.state_.end(), 0);
}
