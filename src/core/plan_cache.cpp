#include "core/plan_cache.h"

namespace tpuperf::core {

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {}

std::pair<int, int> PlanCache::Bucket(int num_kernels, int total_nodes) {
  const auto next_pow2 = [](int v) {
    int p = 1;
    while (p < v) p *= 2;
    return p;
  };
  // node_capacity must cover at least one node per kernel (the planner
  // rejects max_total_nodes < max_kernels).
  const int b = next_pow2(num_kernels < 1 ? 1 : num_kernels);
  const int n = next_pow2(total_nodes < b ? b : total_nodes);
  return {b, n};
}

std::shared_ptr<const plan::CompiledPlan> PlanCache::Lookup(int num_kernels,
                                                            int total_nodes) {
  const std::pair<int, int> bucket = Bucket(num_kernels, total_nodes);
  std::lock_guard lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->bucket == bucket) {
      entries_.splice(entries_.begin(), entries_, it);
      return entries_.front().plan;
    }
  }
  return nullptr;
}

void PlanCache::Insert(int num_kernels, int total_nodes,
                       std::shared_ptr<const plan::CompiledPlan> plan) {
  if (capacity_ == 0) return;
  const std::pair<int, int> bucket = Bucket(num_kernels, total_nodes);
  std::lock_guard lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->bucket == bucket) {
      it->plan = std::move(plan);
      entries_.splice(entries_.begin(), entries_, it);
      return;
    }
  }
  entries_.push_front(Entry{bucket, std::move(plan)});
  while (entries_.size() > capacity_) entries_.pop_back();
}

std::size_t PlanCache::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

}  // namespace tpuperf::core
