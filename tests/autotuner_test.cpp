// Tests for the autotuner: evaluator cost accounting and caching, tile-size
// tuning invariants (exhaustive dominates, oracle top-k equals exhaustive),
// fusion annealing budgets/determinism, and config costing through the
// per-Tune kernel cache.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>

#include "autotuner/fusion_tuner.h"
#include "autotuner/tile_tuner.h"
#include "core/trainer.h"
#include "dataset/families.h"
#include "ir/builder.h"

namespace tpuperf::tune {
namespace {

class AutotunerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    program_ = new ir::Program(data::BuildProgram("RNNLM", 0));
    conv_program_ = new ir::Program(data::BuildProgram("ImageEmbedLike", 0));
    simulator_ = new sim::TpuSimulator(sim::TpuTarget::V2());
    analytical_ = new analytical::AnalyticalModel(sim::TpuTarget::V2());
  }
  static void TearDownTestSuite() {
    delete program_;
    delete conv_program_;
    delete simulator_;
    delete analytical_;
  }

  static ir::Program* program_;
  static ir::Program* conv_program_;
  static sim::TpuSimulator* simulator_;
  static analytical::AnalyticalModel* analytical_;
};

ir::Program* AutotunerTest::program_ = nullptr;
ir::Program* AutotunerTest::conv_program_ = nullptr;
sim::TpuSimulator* AutotunerTest::simulator_ = nullptr;
analytical::AnalyticalModel* AutotunerTest::analytical_ = nullptr;

TEST_F(AutotunerTest, HardwareEvaluatorChargesAndCaches) {
  HardwareEvaluator hw(*simulator_);
  ir::GraphBuilder b;
  b.Dot(b.Parameter(ir::Shape({64, 64})), b.Parameter(ir::Shape({64, 64})));
  const auto kernel = std::move(b).Build();
  const ir::TileConfig tile{{64, 64}};
  EXPECT_DOUBLE_EQ(hw.SpentSeconds(), 0.0);
  const auto first = hw.EstimateKernel(kernel, tile);
  ASSERT_TRUE(first.has_value());
  const double spent_after_one = hw.SpentSeconds();
  EXPECT_GT(spent_after_one, 0.5);  // compile + run
  // Cached: same kernel+tile costs nothing more.
  const auto second = hw.EstimateKernel(kernel, tile);
  EXPECT_DOUBLE_EQ(*second, *first);
  EXPECT_DOUBLE_EQ(hw.SpentSeconds(), spent_after_one);
  EXPECT_EQ(hw.measurements(), 1);
  // New tile on a compiled kernel: run cost only.
  hw.EstimateKernel(kernel, ir::TileConfig{{32, 64}});
  EXPECT_NEAR(hw.SpentSeconds() - spent_after_one, 0.05, 1e-9);
}

TEST_F(AutotunerTest, AnalyticalEvaluatorRejectsDataFormatting) {
  AnalyticalEvaluator eval(*analytical_);
  ir::GraphBuilder b;
  const ir::NodeId x = b.Parameter(ir::Shape({8, 8}));
  b.Reshape(x, ir::Shape({64}));
  const auto kernel = std::move(b).Build();
  EXPECT_FALSE(eval.EstimateKernel(kernel, ir::TileConfig{{64}}).has_value());
}

TEST_F(AutotunerTest, ExhaustiveNeverSlowerThanDefault) {
  TileSizeAutotuner tuner(*simulator_, *analytical_, /*max_candidates=*/64);
  const auto result =
      tuner.Tune(*program_, TileTuneMode::kExhaustive, nullptr);
  EXPECT_GE(result.Speedup(), 1.0);
  EXPECT_GT(result.kernels, 0);
  EXPECT_GT(result.hardware_seconds, 0.0);
}

TEST_F(AutotunerTest, OracleTopKWithAllCandidatesMatchesExhaustive) {
  // A ranker that IS the hardware gives exhaustive results for large k.
  TileSizeAutotuner tuner(*simulator_, *analytical_, /*max_candidates=*/32);
  HardwareEvaluator oracle(*simulator_);
  const auto exhaustive =
      tuner.Tune(*conv_program_, TileTuneMode::kExhaustive, nullptr);
  const auto topk =
      tuner.Tune(*conv_program_, TileTuneMode::kTopK, &oracle, 32);
  EXPECT_NEAR(topk.tuned_runtime_sec, exhaustive.tuned_runtime_sec, 1e-12);
}

TEST_F(AutotunerTest, TopKImprovesWithK) {
  TileSizeAutotuner tuner(*simulator_, *analytical_, /*max_candidates=*/64);
  AnalyticalEvaluator ranker(*analytical_);
  const auto k1 = tuner.Tune(*conv_program_, TileTuneMode::kTopK, &ranker, 1);
  const auto k10 =
      tuner.Tune(*conv_program_, TileTuneMode::kTopK, &ranker, 10);
  EXPECT_LE(k10.tuned_runtime_sec, k1.tuned_runtime_sec * 1.0001);
}

TEST_F(AutotunerTest, ModelOnlyRequiresRanker) {
  TileSizeAutotuner tuner(*simulator_, *analytical_);
  EXPECT_THROW(tuner.Tune(*program_, TileTuneMode::kModelOnly, nullptr),
               std::invalid_argument);
}

TEST_F(AutotunerTest, FusionHardwareTuningRespectsBudgetAndImproves) {
  FusionAutotuner tuner(*simulator_, *analytical_);
  FusionTuneOptions options;
  options.max_steps = 60;
  options.hardware_budget_sec = 120;
  options.seed = 3;
  const auto result = tuner.TuneWithHardware(*program_, options);
  EXPECT_GE(result.Speedup(), 1.0);  // default fallback guarantees this
  EXPECT_LE(result.hardware_seconds, options.hardware_budget_sec + 10.0);
  EXPECT_GT(result.configs_explored, 0);
}

TEST_F(AutotunerTest, FusionTuningDeterministicPerSeed) {
  FusionAutotuner tuner(*simulator_, *analytical_);
  FusionTuneOptions options;
  options.max_steps = 40;
  options.seed = 11;
  const auto a = tuner.TuneWithHardware(*program_, options);
  const auto b = tuner.TuneWithHardware(*program_, options);
  EXPECT_DOUBLE_EQ(a.best_runtime_sec, b.best_runtime_sec);
  options.seed = 12;
  // Different seeds may find different configs (not asserted equal).
  const auto c = tuner.TuneWithHardware(*program_, options);
  EXPECT_GT(c.best_runtime_sec, 0.0);
}

TEST_F(AutotunerTest, ModelGuidedTuningUsesLittleHardware) {
  FusionAutotuner tuner(*simulator_, *analytical_);
  FusionTuneOptions options;
  options.max_steps = 50;
  options.hardware_budget_sec = 60;
  options.seed = 5;
  // The "model" here is the analytical evaluator (cheap, always available).
  AnalyticalEvaluator model(*analytical_);
  const auto result = tuner.TuneWithModel(*program_, model, options);
  EXPECT_GE(result.Speedup(), 1.0);
  EXPECT_LE(result.hardware_seconds, 90.0);  // only validation spends HW
}

TEST_F(AutotunerTest, RandomStartIsNotClampedToDefault) {
  FusionAutotuner tuner(*simulator_, *analytical_);
  FusionTuneOptions options;
  options.max_steps = 10;  // too few steps to recover from a random start
  options.start_from_default = false;
  options.seed = 9;
  const auto result = tuner.TuneWithHardware(*program_, options);
  // Speedup may legitimately be < 1 from a random start.
  EXPECT_GT(result.best_runtime_sec, 0.0);
}

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// The straightforward cost of a config: apply the fusion, give every kernel
// its compiler-default tile, and sum one batched estimate (two-field refs,
// so the evaluator fingerprints the kernels itself).
double ReferenceConfigCost(const ir::Program& program,
                           const data::EdgeList& edges,
                           const data::FusionConfig& config,
                           const sim::TpuSimulator& simulator,
                           const analytical::AnalyticalModel& analytical,
                           CostEvaluator& evaluator) {
  const auto kernels = data::ApplyFusion(program.graph, edges, config);
  std::vector<ir::TileConfig> tiles;
  for (const ir::Kernel& kernel : kernels) {
    tiles.push_back(data::CompilerDefaultTile(kernel.graph, simulator, analytical));
  }
  std::vector<KernelTileRef> refs;
  for (size_t i = 0; i < kernels.size(); ++i) {
    refs.push_back({&kernels[i].graph, &tiles[i]});
  }
  double total = 0;
  for (const auto& cost : evaluator.EstimateBatch(refs)) {
    if (cost.has_value()) total += *cost;
  }
  return total;
}

TEST_F(AutotunerTest, ConfigCostMatchesApplyFusionReference) {
  core::ModelConfig config = core::ModelConfig::FusionTaskDefault();
  config.hidden_dim = 16;
  config.opcode_embedding_dim = 8;
  config.gnn_layers = 2;
  core::LearnedCostModel model(config);
  for (const ir::Program* program : {program_, conv_program_}) {
    const data::EdgeList edges = data::EdgeList::FromGraph(program->graph);
    for (const ir::Kernel& kernel : data::ApplyFusion(
             program->graph, edges,
             data::DefaultFusion(program->graph, edges))) {
      model.FitNodeScaler(kernel.graph);
      model.FitTileScaler(
          data::CompilerDefaultTile(kernel.graph, *simulator_, *analytical_));
    }
  }
  model.FinishFitting();

  using MakeEvaluator = std::function<std::unique_ptr<CostEvaluator>()>;
  std::vector<std::unique_ptr<core::PreparedCache>> caches;
  const std::vector<std::pair<const char*, MakeEvaluator>> evaluators = {
      {"learned",
       [&] {
         caches.push_back(std::make_unique<core::PreparedCache>(model));
         return std::make_unique<LearnedEvaluator>(model, *caches.back());
       }},
      {"hardware",
       [&] { return std::make_unique<HardwareEvaluator>(*simulator_); }}};

  FusionAutotuner tuner(*simulator_, *analytical_);
  for (const ir::Program* program : {program_, conv_program_}) {
    const data::EdgeList edges = data::EdgeList::FromGraph(program->graph);
    std::mt19937_64 rng(41);
    std::uniform_real_distribution<double> fuse_prob(0.1, 0.9);
    for (int c = 0; c < 50; ++c) {
      const data::FusionConfig fusion =
          data::RandomFusion(program->graph, edges, rng, fuse_prob(rng));
      for (const auto& [name, make] : evaluators) {
        const auto tuned = make();
        const auto reference = make();
        const double cost = tuner.ConfigCost(*program, edges, fusion, *tuned);
        EXPECT_EQ(Bits(cost),
                  Bits(ReferenceConfigCost(*program, edges, fusion,
                                           *simulator_, *analytical_,
                                           *reference)))
            << program->name << " config " << c << " " << name;
        EXPECT_EQ(tuned->SpentSeconds(), reference->SpentSeconds());
        EXPECT_GT(cost, 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace tpuperf::tune
