#include "hermes/sim/sharded_executor.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hermes::sim {

namespace {

std::vector<EventQueue*> checked(std::vector<EventQueue*> shards, SimTime lookahead) {
  if (shards.empty()) throw std::invalid_argument("ShardedExecutor needs at least one shard");
  if (shards.size() > 1 && lookahead <= SimTime::zero())
    throw std::invalid_argument("ShardedExecutor lookahead must be positive");
  return shards;
}

}  // namespace

ShardedExecutor::ShardedExecutor(std::vector<EventQueue*> shards, SimTime lookahead,
                                 unsigned threads)
    : shards_{checked(std::move(shards), lookahead)},
      lookahead_{lookahead},
      pool_{std::min<unsigned>(resolve_threads(threads), static_cast<unsigned>(shards_.size()))} {}

void ShardedExecutor::run_until(SimTime t_end, const std::function<bool()>& barrier) {
  for (;;) {
    if (barrier && !barrier()) break;
    SimTime t_min = SimTime::max();
    for (EventQueue* q : shards_) t_min = std::min(t_min, q->next_event_time());
    if (t_min >= t_end) break;
    const SimTime h = std::min(t_min + lookahead_, t_end);
    ++stats_.rounds;
    stats_.horizon_ns_total += static_cast<std::uint64_t>((h - t_min).ns());
    pool_.for_each_index(shards_.size(), [&](std::size_t i) { shards_[i]->run_until_before(h); });
  }
}

}  // namespace hermes::sim
