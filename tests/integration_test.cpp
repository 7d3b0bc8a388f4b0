// Cross-module integration tests: the full pipeline — corpus -> fusion ->
// datasets -> featurization -> training -> evaluation -> autotuning — on a
// small slice, asserting the paper's qualitative relationships end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "autotuner/fusion_tuner.h"
#include "autotuner/tile_tuner.h"
#include "bench/common.h"
#include "core/evaluation.h"
#include "dataset/families.h"
#include "sim/hash.h"

namespace tpuperf {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new std::vector<ir::Program>();
    // Two variants each from three families: train on v0s, test on v1s.
    for (const char* family : {"RNNLM", "RankingLike", "Char2FeatsLike"}) {
      corpus_->push_back(data::BuildProgram(family, 0));
      corpus_->push_back(data::BuildProgram(family, 1));
    }
    simulator_ = new sim::TpuSimulator(sim::TpuTarget::V2());
    analytical_ = new analytical::AnalyticalModel(sim::TpuTarget::V2());
    data::DatasetOptions options;
    options.max_tile_configs_per_kernel = 12;
    options.fusion_configs_per_program = 4;
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

  static constexpr int kTrain[3] = {0, 2, 4};
  static constexpr int kTest[3] = {1, 3, 5};
};

std::vector<ir::Program>* IntegrationTest::corpus_ = nullptr;
sim::TpuSimulator* IntegrationTest::simulator_ = nullptr;
analytical::AnalyticalModel* IntegrationTest::analytical_ = nullptr;
data::TileDataset* IntegrationTest::tile_ = nullptr;
data::FusionDataset* IntegrationTest::fusion_ = nullptr;

TEST_F(IntegrationTest, TrainedTileModelBeatsRandomScorer) {
  core::ModelConfig config = core::ModelConfig::TileTaskDefault();
  config.hidden_dim = 24;
  config.opcode_embedding_dim = 8;
  config.train_steps = 800;
  core::LearnedCostModel model(config);
  core::PreparedCache cache(model);
  const auto stats = core::TrainTileTask(model, *tile_, kTrain, cache);
  EXPECT_LT(stats.final_loss, stats.first_loss * 0.7);

  const auto learned = core::EvaluateTileTask(
      *tile_, kTest, *corpus_, core::MakeLearnedTileScorer(model, cache));
  // A hash-based pseudo-random scorer as the floor.
  const core::TileScorer random_scorer =
      [](const data::TileKernelData& kernel) {
        std::vector<double> scores;
        for (size_t c = 0; c < kernel.configs.size(); ++c) {
          scores.push_back(static_cast<double>(sim::HashUnit(
              sim::HashCombine(kernel.record.fingerprint,
                               static_cast<std::uint64_t>(c)))));
        }
        return scores;
      };
  const auto random = core::EvaluateTileTask(*tile_, kTest, *corpus_,
                                             random_scorer);
  EXPECT_LT(core::AggregateApe(learned).mean,
            core::AggregateApe(random).mean);
  EXPECT_GT(core::AggregateKendall(learned).mean, 0.4);
}

TEST_F(IntegrationTest, TrainedFusionModelGeneralizesToUnseenVariants) {
  core::ModelConfig config = core::ModelConfig::FusionTaskDefault();
  config.hidden_dim = 24;
  config.opcode_embedding_dim = 8;
  config.train_steps = 800;
  core::LearnedCostModel model(config);
  core::PreparedCache cache(model);
  core::TrainFusionTask(model, *fusion_, kTrain, cache);

  const auto results = core::EvaluateFusionTask(
      *fusion_, kTest, *corpus_,
      core::MakeLearnedFusionEstimator(model, cache), /*min_runtime_sec=*/0.0);
  // Within 60% error on unseen program variants with a tiny model: the
  // model must have learned real structure (a constant predictor lands in
  // the hundreds of percent on these mixed-magnitude kernels).
  EXPECT_LT(core::AggregateMape(results).mean, 60.0);
  EXPECT_GT(core::AggregateFusionKendall(results).mean, 0.5);
}

TEST_F(IntegrationTest, ModelSurvivesSerializationMidPipeline) {
  core::ModelConfig config = core::ModelConfig::TileTaskDefault();
  config.hidden_dim = 16;
  config.opcode_embedding_dim = 8;
  config.train_steps = 100;
  core::LearnedCostModel model(config);
  core::PreparedCache cache(model);
  core::TrainTileTask(model, *tile_, kTrain, cache);

  std::stringstream stream;
  model.Save(stream);
  core::LearnedCostModel loaded(config);
  loaded.Load(stream);
  core::PreparedCache loaded_cache(loaded);

  const auto& kdata = tile_->kernels.front();
  const auto& pk =
      cache.Get(kdata.record.kernel.graph, kdata.record.fingerprint);
  const auto& pk2 =
      loaded_cache.Get(kdata.record.kernel.graph, kdata.record.fingerprint);
  for (const auto& tile_config : kdata.configs) {
    EXPECT_DOUBLE_EQ(model.PredictScore(pk, &tile_config),
                     loaded.PredictScore(pk2, &tile_config));
  }
}

TEST_F(IntegrationTest, TileAutotunerWithLearnedModelEndToEnd) {
  core::ModelConfig config = core::ModelConfig::TileTaskDefault();
  config.hidden_dim = 16;
  config.opcode_embedding_dim = 8;
  config.train_steps = 400;
  core::LearnedCostModel model(config);
  core::PreparedCache cache(model);
  core::TrainTileTask(model, *tile_, kTrain, cache);

  tune::TileSizeAutotuner tuner(*simulator_, *analytical_, 48);
  tune::LearnedEvaluator evaluator(model, cache);
  const auto& test_program = (*corpus_)[1];
  const auto exhaustive =
      tuner.Tune(test_program, tune::TileTuneMode::kExhaustive, nullptr);
  const auto top10 =
      tuner.Tune(test_program, tune::TileTuneMode::kTopK, &evaluator, 10);
  // Top-10 with hardware verification is bounded by exhaustive and must
  // recover most of its gain.
  EXPECT_LE(top10.Speedup(), exhaustive.Speedup() + 1e-9);
  EXPECT_GT(top10.Speedup(), 0.8 * exhaustive.Speedup());
  // The model-based search uses far less hardware than exhaustive.
  EXPECT_LT(top10.hardware_seconds, exhaustive.hardware_seconds);
}

TEST_F(IntegrationTest, FusionAutotunerWithLearnedModelEndToEnd) {
  core::ModelConfig config = core::ModelConfig::FusionTaskDefault();
  config.hidden_dim = 16;
  config.opcode_embedding_dim = 8;
  config.train_steps = 400;
  core::LearnedCostModel model(config);
  core::PreparedCache cache(model);
  core::TrainFusionTask(model, *fusion_, kTrain, cache);

  tune::FusionAutotuner tuner(*simulator_, *analytical_);
  tune::LearnedEvaluator evaluator(model, cache);
  tune::FusionTuneOptions options;
  options.max_steps = 50;
  options.hardware_budget_sec = 60;
  options.seed = 21;
  const auto result =
      tuner.TuneWithModel((*corpus_)[1], evaluator, options);
  EXPECT_GE(result.Speedup(), 1.0);
  EXPECT_GT(result.configs_explored, 0);
  EXPECT_LE(result.hardware_seconds, 90.0);
}

TEST_F(IntegrationTest, BenchEnvironmentIsConstructible) {
  // Guards the bench harness entry points without paying full bench cost.
  EXPECT_GT(bench::ReproScale(), 0.0);
  const auto names = data::FamilyNames();
  EXPECT_EQ(names.size(), 18u);
}

// ---- Machine-written JSON report merging ------------------------------------

std::string Slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST_F(IntegrationTest, MergeTopLevelJsonKeyPreservesOtherSections) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tpuperf_merge_test.json")
          .string();
  std::filesystem::remove(path);
  bench::MergeTopLevelJsonKey(path, "alpha", "{\n    \"x\": 1\n  }");
  bench::MergeTopLevelJsonKey(path, "beta", "2");
  bench::MergeTopLevelJsonKey(path, "alpha", "{\n    \"x\": 3\n  }");
  const std::string text = Slurp(path);
  EXPECT_NE(text.find("\"beta\": 2"), std::string::npos) << text;
  EXPECT_NE(text.find("\"x\": 3"), std::string::npos) << text;
  EXPECT_EQ(text.find("\"x\": 1"), std::string::npos)
      << "the replaced value must be gone: " << text;
  std::filesystem::remove(path);
}

// Regression: a run interrupted mid-write leaves a torn report (unbalanced
// braces). Merging used to splice into the damage and silently drop keys;
// now the torn file is detected and rewritten from scratch — the merged key
// must always survive, and the output must be well-formed again.
TEST_F(IntegrationTest, MergeTopLevelJsonKeyRecoversFromTornFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tpuperf_torn_test.json")
          .string();
  {
    std::ofstream os(path, std::ios::trunc);
    os << "{\n  \"serving\": {\n    \"p99_us\": 12";  // interrupted mid-value
  }
  bench::MergeTopLevelJsonKey(path, "gamma", "7");
  const std::string text = Slurp(path);
  EXPECT_NE(text.find("\"gamma\": 7"), std::string::npos) << text;
  // Balanced again: count braces.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'))
      << text;
  // And the next merge keeps gamma.
  bench::MergeTopLevelJsonKey(path, "delta", "8");
  const std::string text2 = Slurp(path);
  EXPECT_NE(text2.find("\"gamma\": 7"), std::string::npos) << text2;
  EXPECT_NE(text2.find("\"delta\": 8"), std::string::npos) << text2;
  std::filesystem::remove(path);
}

TEST_F(IntegrationTest, MergeIntoJsonObjectAccumulatesScaleEntries) {
  std::string obj = bench::MergeIntoJsonObject("", "scale_1", "{ \"a\": 1 }");
  obj = bench::MergeIntoJsonObject(obj, "scale_4", "{ \"a\": 4 }");
  obj = bench::MergeIntoJsonObject(obj, "scale_1", "{ \"a\": 2 }");
  EXPECT_NE(obj.find("\"scale_4\""), std::string::npos) << obj;
  EXPECT_NE(obj.find("\"a\": 2"), std::string::npos) << obj;
  EXPECT_EQ(obj.find("\"a\": 1"), std::string::npos) << obj;
  EXPECT_EQ(std::count(obj.begin(), obj.end(), '{'),
            std::count(obj.begin(), obj.end(), '}'))
      << obj;
}

}  // namespace
}  // namespace tpuperf
