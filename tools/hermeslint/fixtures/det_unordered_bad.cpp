// Fixture: determinism.unordered-iter triggers. Never compiled.
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <vector>

struct Holder {
  std::unordered_map<std::uint64_t, int> scores_;
  std::unordered_set<int> members_;
};

std::vector<int> leak_hash_order(const Holder& h) {
  std::vector<int> out;
  for (const auto& [id, score] : h.scores_) {  // hash order escapes
    out.push_back(score + static_cast<int>(id));
  }
  for (int m : h.members_) {  // ditto for sets
    out.push_back(m);
  }
  return out;
}

double sum_in_hash_order(const Holder& h) {
  return std::accumulate(h.members_.begin(), h.members_.end(), 0.0);  // float adds in hash order
}
