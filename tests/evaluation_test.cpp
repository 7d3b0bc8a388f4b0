// Tests for the task-evaluation harness: oracle scorers must produce perfect
// metrics, adversarial scorers bad ones, and the §5.2 kernel filters must
// apply.
#include <gtest/gtest.h>

#include "core/evaluation.h"
#include "dataset/families.h"

namespace tpuperf::core {
namespace {

class EvaluationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new std::vector<ir::Program>();
    corpus_->push_back(data::BuildProgram("RNNLM", 0));
    corpus_->push_back(data::BuildProgram("RankingLike", 0));
    simulator_ = new sim::TpuSimulator(sim::TpuTarget::V2());
    analytical_ = new analytical::AnalyticalModel(sim::TpuTarget::V2());
    data::DatasetOptions options;
    options.max_tile_configs_per_kernel = 8;
    options.fusion_configs_per_program = 2;
    tile_ = new data::TileDataset(
        data::BuildTileDataset(*corpus_, *simulator_, options));
    fusion_ = new data::FusionDataset(
        data::BuildFusionDataset(*corpus_, *simulator_, *analytical_, options));
  }
  static void TearDownTestSuite() {
    delete tile_;
    delete fusion_;
    delete analytical_;
    delete simulator_;
    delete corpus_;
  }

  static std::vector<ir::Program>* corpus_;
  static sim::TpuSimulator* simulator_;
  static analytical::AnalyticalModel* analytical_;
  static data::TileDataset* tile_;
  static data::FusionDataset* fusion_;
};

std::vector<ir::Program>* EvaluationTest::corpus_ = nullptr;
sim::TpuSimulator* EvaluationTest::simulator_ = nullptr;
analytical::AnalyticalModel* EvaluationTest::analytical_ = nullptr;
data::TileDataset* EvaluationTest::tile_ = nullptr;
data::FusionDataset* EvaluationTest::fusion_ = nullptr;

TEST_F(EvaluationTest, OracleTileScorerIsPerfect) {
  const TileScorer oracle = [](const data::TileKernelData& kernel) {
    return kernel.runtimes;
  };
  const std::vector<int> programs = {0, 1};
  const auto results = EvaluateTileTask(*tile_, programs, *corpus_, oracle);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_DOUBLE_EQ(r.ape, 0.0) << r.application;
    EXPECT_GT(r.mean_kendall, 0.99) << r.application;
    EXPECT_GT(r.kernels, 0);
  }
}

TEST_F(EvaluationTest, InvertedTileScorerIsBad) {
  const TileScorer inverted = [](const data::TileKernelData& kernel) {
    std::vector<double> scores;
    for (const double runtime : kernel.runtimes) scores.push_back(-runtime);
    return scores;
  };
  const std::vector<int> programs = {0};
  const auto results = EvaluateTileTask(*tile_, programs, *corpus_, inverted);
  EXPECT_GT(results[0].ape, 10.0);
  EXPECT_LT(results[0].mean_kendall, -0.99);
}

TEST_F(EvaluationTest, OracleFusionEstimatorIsPerfect) {
  const FusionEstimator oracle =
      [](const data::FusionSample& sample) -> std::optional<double> {
    return sample.runtime;
  };
  const std::vector<int> programs = {0, 1};
  const auto results =
      EvaluateFusionTask(*fusion_, programs, *corpus_, oracle);
  for (const auto& r : results) {
    EXPECT_NEAR(r.mape, 0.0, 1e-9);
    EXPECT_GT(r.kendall, 0.99);
  }
}

TEST_F(EvaluationTest, MinRuntimeFilterShrinksKernelSet) {
  const FusionEstimator oracle =
      [](const data::FusionSample& sample) -> std::optional<double> {
    return sample.runtime;
  };
  const std::vector<int> programs = {0, 1};
  const auto all =
      EvaluateFusionTask(*fusion_, programs, *corpus_, oracle, 0.0);
  const auto filtered =
      EvaluateFusionTask(*fusion_, programs, *corpus_, oracle, 5e-6);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_GE(all[i].kernels, filtered[i].kernels);
  }
}

TEST_F(EvaluationTest, NulloptSamplesAreSkipped) {
  int calls = 0;
  const FusionEstimator never = [&calls](const data::FusionSample&)
      -> std::optional<double> {
    ++calls;
    return std::nullopt;
  };
  const std::vector<int> programs = {0};
  const auto results =
      EvaluateFusionTask(*fusion_, programs, *corpus_, never, 0.0);
  EXPECT_GT(calls, 0);
  EXPECT_EQ(results[0].kernels, 0);
  EXPECT_DOUBLE_EQ(results[0].mape, 0.0);
}

TEST_F(EvaluationTest, AnalyticalScorersPlugIn) {
  const std::vector<int> programs = {0};
  const auto tile_results = EvaluateTileTask(
      *tile_, programs, *corpus_, MakeAnalyticalTileScorer(*analytical_));
  EXPECT_GT(tile_results[0].kernels, 0);
  EXPECT_GT(tile_results[0].mean_kendall, 0.0);  // better than random

  const auto fusion_results = EvaluateFusionTask(
      *fusion_, programs, *corpus_,
      MakeAnalyticalFusionEstimator(*analytical_), 0.0);
  EXPECT_GE(fusion_results[0].kernels, 0);
}

TEST_F(EvaluationTest, AggregatesMatchManualComputation) {
  std::vector<TileTaskResult> results(3);
  results[0].ape = 1.0;
  results[1].ape = 3.0;
  results[2].ape = 8.0;
  const Aggregate agg = AggregateApe(results);
  EXPECT_DOUBLE_EQ(agg.mean, 4.0);
  EXPECT_DOUBLE_EQ(agg.median, 3.0);
  EXPECT_NEAR(agg.stddev, 3.6056, 1e-3);
}

}  // namespace
}  // namespace tpuperf::core
