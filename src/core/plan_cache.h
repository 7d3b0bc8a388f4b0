// The model-owned cache of compiled inference plans (src/plan).
//
// LearnedCostModel keeps one PlanCache and routes every Predict* call
// through it: a batch shape is bucketed to the next power of two in both
// dimensions (batch size and packed node count), so nearby shapes share one
// plan — a plan compiled for capacity (2^a, 2^b) replays any batch at or
// under that capacity. Plans bind the model's live parameter matrices by
// address and snapshot nothing, so a cached plan never goes stale across
// optimizer steps, Load, SetOutputBias or SetPrecision.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <utility>

namespace tpuperf::plan {
class CompiledPlan;
}  // namespace tpuperf::plan

namespace tpuperf::core {

// An LRU of compiled plans keyed by batch-shape bucket. Thread-safe.
class PlanCache {
 public:
  // Buckets kept per model. A 15 s run of the tile tuner, the fusion tuner
  // or the prediction service touches 20-33 (batch, node) buckets of its
  // model, so 64 never evicts on them.
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit PlanCache(std::size_t capacity = kDefaultCapacity);

  // The bucket (plan capacity) covering a concrete batch shape.
  static std::pair<int, int> Bucket(int num_kernels, int total_nodes);

  // The cached plan whose bucket covers (num_kernels, total_nodes), or null.
  // A hit refreshes the entry's LRU position.
  std::shared_ptr<const plan::CompiledPlan> Lookup(int num_kernels,
                                                   int total_nodes);
  // Inserts a plan under Bucket(num_kernels, total_nodes), evicting the
  // least-recently-used entry when the cache is full.
  void Insert(int num_kernels, int total_nodes,
              std::shared_ptr<const plan::CompiledPlan> plan);

  std::size_t size() const;

 private:
  struct Entry {
    std::pair<int, int> bucket;
    std::shared_ptr<const plan::CompiledPlan> plan;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> entries_;  // front = most recently used
};

}  // namespace tpuperf::core
