// Tests for plan-compiled inference (src/plan): bit-exact parity between
// CompiledPlan replay, the model's cached-plan Predict* entry points and an
// explicit tape forward across the full GNN × reduction grid at pool widths
// 1 and 4, allocation-free replay after warm-up, the NaN-poison validation
// of the liveness plan, PlanCache bucketing/LRU eviction, the model-owned
// cache's compile-once-replay-many path (direct and through the service),
// and the bit-identical tape fallback when CompilePlan fails.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/cost_model.h"
#include "core/fault_injection.h"
#include "core/plan_cache.h"
#include "core/thread_pool.h"
#include "ir/builder.h"
#include "nn/ops.h"
#include "plan/plan.h"
#include "serve/prediction_service.h"
#include "tape_reference.h"

// ---- Global allocation counter ---------------------------------------------
// Replaces the global allocator for this test binary so ReplayIsAllocationFree
// can assert that a warmed-up CompiledPlan::Run performs zero heap
// allocations. Counting is armed only around the measured Run calls.

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocation_count{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// The nothrow forms (std::stable_sort's temporary buffer uses them) must come
// from the same malloc, or the replaced deletes above free memory the
// default nothrow new allocated (an alloc-dealloc mismatch under ASan).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tpuperf {
namespace {

using core::BatchItem;
using core::GnnKind;
using core::LearnedCostModel;
using core::ModelConfig;
using core::PreparedBatch;
using core::PreparedKernel;
using core::ReductionKind;
using testing_util::TapeBatch;
using testing_util::TapeScore;

// A random elementwise kernel with at least `target_nodes` nodes (the same
// generator batch_test and serve_test use, so batches mix segment lengths).
ir::Graph RandomKernel(std::uint64_t seed, int target_nodes) {
  std::mt19937_64 rng(seed);
  ir::GraphBuilder b;
  std::vector<ir::NodeId> pool;
  pool.push_back(b.Parameter(ir::Shape({16, 32})));
  pool.push_back(b.Parameter(ir::Shape({16, 32})));
  std::uniform_int_distribution<int> op_pick(0, 3);
  while (static_cast<int>(pool.size()) < target_nodes) {
    std::uniform_int_distribution<size_t> node_pick(0, pool.size() - 1);
    const ir::NodeId x = pool[node_pick(rng)];
    switch (op_pick(rng)) {
      case 0:
        pool.push_back(b.Tanh(x));
        break;
      case 1:
        pool.push_back(b.Relu(x));
        break;
      case 2:
        pool.push_back(b.Unary(ir::OpCode::kExp, x));
        break;
      default:
        pool.push_back(b.Binary(ir::OpCode::kAdd, x, pool[node_pick(rng)]));
        break;
    }
  }
  b.MarkOutput(pool.back());
  return std::move(b).Build();
}

ModelConfig SmallConfig() {
  ModelConfig c = ModelConfig::TileTaskDefault();
  c.hidden_dim = 16;
  c.opcode_embedding_dim = 8;
  c.gnn_layers = 2;
  return c;
}

// Kernels, tiles, and a fitted model for a given architecture point.
struct Fixture {
  std::vector<ir::Graph> kernels;
  std::vector<ir::TileConfig> tiles;
  std::unique_ptr<LearnedCostModel> model;
  std::vector<PreparedKernel> prepared;

  explicit Fixture(ModelConfig config, int num_kernels = 6) {
    for (int k = 0; k < num_kernels; ++k) {
      kernels.push_back(RandomKernel(
          1000 + static_cast<std::uint64_t>(k) * 17, 5 + 7 * k));
      tiles.push_back(ir::TileConfig{
          {static_cast<std::int64_t>(1 << (k % 5)), 8}});
    }
    model = std::make_unique<LearnedCostModel>(config);
    for (const auto& kernel : kernels) model->FitNodeScaler(kernel);
    for (const auto& tile : tiles) model->FitTileScaler(tile);
    model->FinishFitting();
    for (const auto& kernel : kernels) {
      prepared.push_back(model->Prepare(kernel));
    }
  }

  PreparedBatch MakeBatch() const {
    std::vector<BatchItem> items;
    for (size_t i = 0; i < prepared.size(); ++i) {
      items.push_back({&prepared[i], &tiles[i]});
    }
    return model->PrepareBatch(items);
  }
};

// Restores the global pool width on scope exit.
struct PoolWidthGuard {
  explicit PoolWidthGuard(int n) { core::ThreadPool::SetNumThreads(n); }
  ~PoolWidthGuard() {
    core::ThreadPool::SetNumThreads(core::ThreadPool::DefaultNumThreads());
  }
};

// Arms a fault spec for one scope; restores the env-armed set on exit.
struct ScopedFaults {
  explicit ScopedFaults(std::string_view spec) {
    core::FaultRegistry::Instance().ArmSpec(spec);
  }
  ~ScopedFaults() { core::FaultRegistry::Instance().ArmFromEnv(); }
};

// ---- Parity ----------------------------------------------------------------

class PlanParityTest
    : public ::testing::TestWithParam<
          std::tuple<int, GnnKind, ReductionKind>> {};

// Replaying a compiled plan must be EXACTLY the tape path's output — batched
// vs a tape ForwardBatch and single-kernel vs a tape Forward — at every pool
// width, and so must PredictBatch/PredictScore, which replay the model's
// cached plans.
TEST_P(PlanParityTest, BitExactVsTape) {
  const auto [width, gnn, reduction] = GetParam();
  PoolWidthGuard pool(width);
  ModelConfig config = SmallConfig();
  config.gnn = gnn;
  config.reduction = reduction;
  Fixture fx(config);

  const auto plan = fx.model->CompilePlan(8, 512);
  const PreparedBatch batch = fx.MakeBatch();

  const std::vector<double> tape = TapeBatch(*fx.model, batch);
  const std::vector<double> planned =
      fx.model->PredictBatchWithPlan(*plan, batch);
  const std::vector<double> predicted = fx.model->PredictBatch(batch);
  ASSERT_EQ(planned.size(), tape.size());
  ASSERT_EQ(predicted.size(), tape.size());
  for (size_t i = 0; i < tape.size(); ++i) {
    EXPECT_TRUE(std::isfinite(planned[i]));
    EXPECT_EQ(planned[i], tape[i])
        << "kernel " << i << " (" << ToString(gnn) << " + "
        << ToString(reduction) << ", width " << width << ")";
    EXPECT_EQ(predicted[i], tape[i]) << "PredictBatch kernel " << i;
  }
  for (size_t i = 0; i < fx.prepared.size(); ++i) {
    const double single_tape =
        TapeScore(*fx.model, fx.prepared[i], &fx.tiles[i]);
    EXPECT_EQ(fx.model->PredictWithPlan(*plan, fx.prepared[i], &fx.tiles[i]),
              single_tape)
        << "single kernel " << i;
    EXPECT_EQ(fx.model->PredictScore(fx.prepared[i], &fx.tiles[i]),
              single_tape)
        << "PredictScore kernel " << i;
    EXPECT_EQ(single_tape, tape[i]) << "tape single vs batched " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlanParityTest,
    ::testing::Combine(
        ::testing::Values(1, 4),
        ::testing::Values(GnnKind::kNone, GnnKind::kGraphSage, GnnKind::kGat),
        ::testing::Values(ReductionKind::kPerNode, ReductionKind::kColumnWise,
                          ReductionKind::kLstm, ReductionKind::kTransformer)));

// The undirected (symmetric-aggregation) GraphSAGE ablation compiles to the
// sym_norm block aggregation and must also be bit-exact.
TEST(PlanParity, UndirectedGraphSage) {
  ModelConfig config = SmallConfig();
  config.directed_edges = false;
  Fixture fx(config);

  const auto plan = fx.model->CompilePlan(8, 512);
  const PreparedBatch batch = fx.MakeBatch();
  const std::vector<double> tape = TapeBatch(*fx.model, batch);
  const std::vector<double> planned =
      fx.model->PredictBatchWithPlan(*plan, batch);
  ASSERT_EQ(planned.size(), tape.size());
  for (size_t i = 0; i < tape.size(); ++i) {
    EXPECT_EQ(planned[i], tape[i]) << "kernel " << i;
  }
}

// Kernel-embedding feature placement (option 2) routes the per-kernel rows
// through the post-reduction concat instead of the node broadcast.
TEST(PlanParity, KernelEmbeddingPlacement) {
  ModelConfig config = SmallConfig();
  config.static_perf_placement = core::FeaturePlacement::kKernelEmbedding;
  config.tile_placement = core::FeaturePlacement::kKernelEmbedding;
  Fixture fx(config);

  const auto plan = fx.model->CompilePlan(8, 512);
  const PreparedBatch batch = fx.MakeBatch();
  const std::vector<double> tape = TapeBatch(*fx.model, batch);
  const std::vector<double> planned =
      fx.model->PredictBatchWithPlan(*plan, batch);
  for (size_t i = 0; i < tape.size(); ++i) {
    EXPECT_EQ(planned[i], tape[i]) << "kernel " << i;
  }
}

// A plan replays any batch at or under its capacity: sub-batches and single
// kernels through the same plan still match the tape exactly.
TEST(PlanParity, SmallerBatchesThroughOnePlan) {
  Fixture fx(SmallConfig());
  const auto plan = fx.model->CompilePlan(8, 512);
  for (size_t take = 1; take <= fx.prepared.size(); take += 2) {
    std::vector<BatchItem> items;
    for (size_t i = 0; i < take; ++i) {
      items.push_back({&fx.prepared[i], &fx.tiles[i]});
    }
    const PreparedBatch batch = fx.model->PrepareBatch(items);
    const std::vector<double> tape = TapeBatch(*fx.model, batch);
    const std::vector<double> planned =
        fx.model->PredictBatchWithPlan(*plan, batch);
    for (size_t i = 0; i < take; ++i) {
      EXPECT_EQ(planned[i], tape[i]) << "take " << take << " kernel " << i;
    }
  }
}

// ---- Liveness validation ---------------------------------------------------

// In poison mode every retired buffer is filled with NaN the moment its last
// scheduled reader has run. If the memory plan ever let a live value share a
// physical buffer with a dead one — or an instruction read past its
// operands' lifetimes — the NaN would propagate to the output. Equal, finite
// scores prove no instruction reads a dead buffer.
TEST(PlanLiveness, PoisonedDeadBuffersNeverRead) {
  for (const ReductionKind reduction :
       {ReductionKind::kPerNode, ReductionKind::kColumnWise,
        ReductionKind::kLstm, ReductionKind::kTransformer}) {
    ModelConfig config = SmallConfig();
    config.reduction = reduction;
    Fixture fx(config);

    const auto poisoned =
        fx.model->CompilePlan(8, 512, /*poison_dead_buffers=*/true);
    const PreparedBatch batch = fx.MakeBatch();
    const std::vector<double> tape = TapeBatch(*fx.model, batch);
    const std::vector<double> planned =
        fx.model->PredictBatchWithPlan(*poisoned, batch);
    for (size_t i = 0; i < tape.size(); ++i) {
      EXPECT_TRUE(std::isfinite(planned[i]));
      EXPECT_EQ(planned[i], tape[i])
          << ToString(reduction) << " kernel " << i;
    }
  }
}

// The memory plan must actually reuse buffers: the physical pool should be
// strictly smaller than the logical buffer count for a multi-layer model.
TEST(PlanLiveness, PhysicalPoolSmallerThanLogical) {
  Fixture fx(SmallConfig());
  const auto plan = fx.model->CompilePlan(8, 512);
  EXPECT_GT(plan->num_instructions(), 0);
  EXPECT_GT(plan->num_buffers(), 0);
  EXPECT_LT(plan->num_physical_buffers(), plan->num_buffers());
  EXPECT_GT(plan->slab_bytes(), 0u);
}

// ---- Allocation-free replay ------------------------------------------------

// After warm-up, a width-1 Run must perform ZERO heap allocations: the slab,
// the execution context, and every kernel scratch are preallocated.
TEST(PlanReplay, ReplayIsAllocationFree) {
  PoolWidthGuard pool(1);
  Fixture fx(SmallConfig());
  const auto plan = fx.model->CompilePlan(8, 512);
  const PreparedBatch batch = fx.MakeBatch();
  const plan::PlanInput input = plan::PlanInput::FromBatch(batch);
  std::vector<double> out(static_cast<size_t>(batch.num_kernels()));

  plan->Run(input, out);  // warm-up: context + thread-local scratch
  plan->Run(input, out);

  g_allocation_count.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  plan->Run(input, out);
  plan->Run(input, out);
  g_count_allocations.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0u);
  const std::vector<double> tape = TapeBatch(*fx.model, batch);
  for (size_t i = 0; i < tape.size(); ++i) EXPECT_EQ(out[i], tape[i]);
}

// Concurrent Run calls on ONE shared plan (each borrowing a pooled context)
// must all reproduce the tape scores. Runs under TSan in CI.
TEST(PlanReplay, ConcurrentReplayOfSharedPlan) {
  Fixture fx(SmallConfig());
  const auto plan = fx.model->CompilePlan(8, 512);
  const PreparedBatch batch = fx.MakeBatch();
  const std::vector<double> tape = TapeBatch(*fx.model, batch);
  std::vector<double> single(fx.prepared.size());
  for (size_t i = 0; i < fx.prepared.size(); ++i) {
    single[i] = TapeScore(*fx.model, fx.prepared[i], &fx.tiles[i]);
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kIters; ++r) {
        if ((t + r) % 2 == 0) {
          const std::vector<double> got =
              fx.model->PredictBatchWithPlan(*plan, batch);
          for (size_t i = 0; i < tape.size(); ++i) {
            if (got[i] != tape[i]) mismatches.fetch_add(1);
          }
        } else {
          const size_t i = static_cast<size_t>(t + r) % fx.prepared.size();
          if (fx.model->PredictWithPlan(*plan, fx.prepared[i],
                                        &fx.tiles[i]) != single[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- Compile-time validation -----------------------------------------------

TEST(PlanCompile, RejectsBadArguments) {
  Fixture fx(SmallConfig());
  EXPECT_THROW(fx.model->CompilePlan(0, 512), std::invalid_argument);
  EXPECT_THROW(fx.model->CompilePlan(8, 4), std::invalid_argument);

  LearnedCostModel unfitted(SmallConfig());
  EXPECT_THROW(unfitted.CompilePlan(8, 512), std::logic_error);
}

TEST(PlanCompile, RunRejectsOverCapacityBatches) {
  Fixture fx(SmallConfig());
  // Capacity of 2 kernels / 32 nodes: the 6-kernel batch must be refused.
  const auto plan = fx.model->CompilePlan(2, 32);
  const PreparedBatch batch = fx.MakeBatch();
  EXPECT_THROW(fx.model->PredictBatchWithPlan(*plan, batch),
               std::invalid_argument);
}

// ---- PlanCache -------------------------------------------------------------

TEST(PlanCacheTest, BucketsRoundUpToPowersOfTwo) {
  EXPECT_EQ(core::PlanCache::Bucket(1, 1), (std::pair<int, int>{1, 1}));
  EXPECT_EQ(core::PlanCache::Bucket(3, 100), (std::pair<int, int>{4, 128}));
  EXPECT_EQ(core::PlanCache::Bucket(4, 128), (std::pair<int, int>{4, 128}));
  EXPECT_EQ(core::PlanCache::Bucket(5, 129), (std::pair<int, int>{8, 256}));
  // The node capacity is raised to at least the batch capacity so the
  // compiled plan is always valid.
  EXPECT_EQ(core::PlanCache::Bucket(8, 3), (std::pair<int, int>{8, 8}));
  // The serving name is the same bucketing.
  EXPECT_EQ(serve::PlanCache::Bucket(5, 129), core::PlanCache::Bucket(5, 129));
}

TEST(PlanCacheTest, SharedBucketHitsAndLruEviction) {
  Fixture fx(SmallConfig());
  const auto plan = fx.model->CompilePlan(4, 128);

  core::PlanCache cache(2);
  EXPECT_EQ(cache.Lookup(3, 100), nullptr);
  cache.Insert(3, 100, plan);  // bucket (4, 128)
  EXPECT_EQ(cache.size(), 1u);
  // Any shape in the same bucket hits the same plan.
  EXPECT_EQ(cache.Lookup(4, 128).get(), plan.get());
  EXPECT_EQ(cache.Lookup(3, 65).get(), plan.get());
  // A different bucket (here: a smaller batch dimension) misses.
  EXPECT_EQ(cache.Lookup(2, 65), nullptr);
  EXPECT_EQ(cache.Lookup(3, 300), nullptr);

  cache.Insert(8, 256, plan);   // bucket (8, 256); cache full
  EXPECT_EQ(cache.Lookup(3, 100).get(), plan.get());  // refresh (4, 128)
  cache.Insert(16, 512, plan);  // evicts the LRU entry, (8, 256)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(8, 256), nullptr);
  EXPECT_EQ(cache.Lookup(3, 100).get(), plan.get());
  EXPECT_EQ(cache.Lookup(16, 512).get(), plan.get());
}

// ---- The model-owned cache -------------------------------------------------

// PredictBatch compiles one plan per shape bucket and replays it for every
// later batch in that bucket; sub-batches in a smaller bucket compile their
// own. PredictScore shares the cache through (1, n) buckets.
TEST(PlanModelCache, CompilesOncePerBucket) {
  Fixture fx(SmallConfig());
  const PreparedBatch batch = fx.MakeBatch();
  const std::vector<double> tape = TapeBatch(*fx.model, batch);

  core::PlanUse use = core::PlanUse::kTape;
  EXPECT_EQ(fx.model->PredictBatch(batch, &use), tape);
  EXPECT_EQ(use, core::PlanUse::kCompiled);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(fx.model->PredictBatch(batch, &use), tape);
    EXPECT_EQ(use, core::PlanUse::kHit);
  }

  std::vector<BatchItem> two = {{&fx.prepared[0], &fx.tiles[0]},
                                {&fx.prepared[1], &fx.tiles[1]}};
  const PreparedBatch small = fx.model->PrepareBatch(two);
  EXPECT_EQ(fx.model->PredictBatch(small, &use), TapeBatch(*fx.model, small));
  EXPECT_EQ(use, core::PlanUse::kCompiled);
  EXPECT_EQ(fx.model->PredictBatch(small, &use), TapeBatch(*fx.model, small));
  EXPECT_EQ(use, core::PlanUse::kHit);
}

// A forced plan.compile_fail sends every Predict* call to the tape, which
// must stay bit-identical; once the fault is disarmed the next call
// compiles and caches a plan as usual.
TEST(PlanModelCache, CompileFailureFallsBackToIdenticalTape) {
  Fixture fx(SmallConfig());
  const PreparedBatch batch = fx.MakeBatch();
  const std::vector<double> tape = TapeBatch(*fx.model, batch);
  {
    ScopedFaults faults("plan.compile_fail:every=1");
    core::PlanUse use = core::PlanUse::kHit;
    EXPECT_EQ(fx.model->PredictBatch(batch, &use), tape);
    EXPECT_EQ(use, core::PlanUse::kTape);
    for (size_t i = 0; i < fx.prepared.size(); ++i) {
      EXPECT_EQ(fx.model->PredictScore(fx.prepared[i], &fx.tiles[i]),
                TapeScore(*fx.model, fx.prepared[i], &fx.tiles[i]))
          << "kernel " << i;
    }
  }
  core::PlanUse use = core::PlanUse::kTape;
  EXPECT_EQ(fx.model->PredictBatch(batch, &use), tape);
  EXPECT_EQ(use, core::PlanUse::kCompiled);
}

// ---- Service integration ---------------------------------------------------

// Identical flush compositions must compile ONE plan and replay it for every
// later batch, with results still exactly the tape's.
TEST(PlanService, CompileOnceReplayMany) {
  Fixture fx(SmallConfig());
  std::vector<double> direct(fx.kernels.size());
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    direct[i] = TapeScore(*fx.model, fx.prepared[i], &fx.tiles[i]);
  }

  serve::ServiceConfig config;
  config.max_batch = static_cast<int>(fx.kernels.size());
  config.deadline_us = 10000000;  // only the size trigger flushes
  config.num_threads = 1;
  auto served_model = std::make_unique<LearnedCostModel>(SmallConfig());
  for (const auto& kernel : fx.kernels) served_model->FitNodeScaler(kernel);
  for (const auto& tile : fx.tiles) served_model->FitTileScaler(tile);
  served_model->FinishFitting();
  serve::PredictionService service(std::move(served_model), config);

  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<serve::PredictResult>> futures;
    for (size_t i = 0; i < fx.kernels.size(); ++i) {
      futures.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
    }
    // Wait out the round so every flush has the same composition (and hence
    // the same plan bucket).
    for (size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get().value, direct[i]) << "round " << round;
    }
  }

  service.Shutdown();
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(stats.plan_compiles, 1u);
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_hits, static_cast<std::uint64_t>(kRounds - 1));
}

// With plan.compile_fail forced, every served batch is scored on the tape:
// still bit-identical, counted as a miss, never as a compile or a hit.
TEST(PlanService, ForcedCompileFailureServesTapeExactly) {
  Fixture fx(SmallConfig(), 3);
  std::vector<double> direct(fx.kernels.size());
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    direct[i] = TapeScore(*fx.model, fx.prepared[i], &fx.tiles[i]);
  }
  ScopedFaults faults("plan.compile_fail:every=1");
  auto served_model = std::make_unique<LearnedCostModel>(SmallConfig());
  for (const auto& kernel : fx.kernels) served_model->FitNodeScaler(kernel);
  for (const auto& tile : fx.tiles) served_model->FitTileScaler(tile);
  served_model->FinishFitting();
  serve::PredictionService service(std::move(served_model),
                                   serve::ServiceConfig{});

  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    EXPECT_EQ(service.Predict(fx.kernels[i], &fx.tiles[i]), direct[i]);
  }
  service.Shutdown();
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plan_hits, 0u);
  EXPECT_EQ(stats.plan_compiles, 0u);
  EXPECT_EQ(stats.plan_misses, stats.batches);
  EXPECT_EQ(stats.batches, static_cast<std::uint64_t>(fx.kernels.size()));
}

}  // namespace
}  // namespace tpuperf
