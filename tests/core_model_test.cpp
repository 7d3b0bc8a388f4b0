// Tests for the learned cost model: construction across the full
// architecture grid (parameterized), forward determinism, feature-placement
// options, save/load fidelity, cached plans that never go stale, and
// short-training behaviour.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "core/cost_model.h"
#include "core/trainer.h"
#include "dataset/families.h"
#include "dataset/fusion.h"
#include "ir/builder.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "sim/simulator.h"
#include "tape_reference.h"

namespace tpuperf::core {
namespace {

ir::Graph SmallKernel() {
  ir::GraphBuilder b;
  const ir::NodeId x = b.Parameter(ir::Shape({16, 32}));
  const ir::NodeId w = b.Parameter(ir::Shape({32, 64}));
  const ir::NodeId d = b.Dot(x, w);
  b.Unary(ir::OpCode::kTanh, d);
  return std::move(b).Build();
}

ModelConfig SmallConfig() {
  ModelConfig c = ModelConfig::TileTaskDefault();
  c.hidden_dim = 16;
  c.opcode_embedding_dim = 8;
  c.gnn_layers = 2;
  c.train_steps = 50;
  return c;
}

void FitOn(LearnedCostModel& model, const ir::Graph& kernel) {
  model.FitNodeScaler(kernel);
  model.FitTileScaler(ir::TileConfig{{16, 64}});
  model.FitTileScaler(ir::TileConfig{{1, 8}});
  model.FinishFitting();
}

// The full Table-4 grid must construct and produce finite predictions.
class ModelGridTest
    : public ::testing::TestWithParam<std::tuple<GnnKind, ReductionKind>> {};

TEST_P(ModelGridTest, ForwardIsFiniteAndDeterministic) {
  const auto [gnn, reduction] = GetParam();
  ModelConfig config = SmallConfig();
  config.gnn = gnn;
  config.reduction = reduction;
  LearnedCostModel model(config);
  const auto kernel = SmallKernel();
  FitOn(model, kernel);
  const PreparedKernel pk = model.Prepare(kernel);
  const ir::TileConfig tile{{8, 64}};
  const double a = model.PredictScore(pk, &tile);
  const double b = model.PredictScore(pk, &tile);
  EXPECT_TRUE(std::isfinite(a));
  EXPECT_DOUBLE_EQ(a, b);
  // Different tiles must be able to produce different scores.
  const ir::TileConfig other{{1, 8}};
  EXPECT_NE(model.PredictScore(pk, &other), a);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelGridTest,
    ::testing::Combine(
        ::testing::Values(GnnKind::kNone, GnnKind::kGraphSage, GnnKind::kGat),
        ::testing::Values(ReductionKind::kPerNode, ReductionKind::kColumnWise,
                          ReductionKind::kLstm, ReductionKind::kTransformer)));

TEST(CostModel, RequiresFittedScalers) {
  LearnedCostModel model(SmallConfig());
  EXPECT_THROW(model.Prepare(SmallKernel()), std::logic_error);
}

TEST(CostModel, RequiresTileWhenConfigured) {
  LearnedCostModel model(SmallConfig());
  const auto kernel = SmallKernel();
  FitOn(model, kernel);
  const PreparedKernel pk = model.Prepare(kernel);
  EXPECT_THROW(model.PredictScore(pk, nullptr), std::invalid_argument);
}

TEST(CostModel, FeaturePlacementOptionsChangeArchitectureNotValidity) {
  for (const auto placement : {FeaturePlacement::kNodeFeatures,
                               FeaturePlacement::kKernelEmbedding}) {
    ModelConfig config = SmallConfig();
    config.tile_placement = placement;
    config.static_perf_placement = placement;
    LearnedCostModel model(config);
    const auto kernel = SmallKernel();
    FitOn(model, kernel);
    const PreparedKernel pk = model.Prepare(kernel);
    const ir::TileConfig tile{{8, 64}};
    EXPECT_TRUE(std::isfinite(model.PredictScore(pk, &tile)));
  }
}

TEST(CostModel, LogTargetExponentiatesSeconds) {
  ModelConfig config = SmallConfig();
  config.use_tile_features = false;
  config.log_target = true;
  LearnedCostModel model(config);
  const auto kernel = SmallKernel();
  FitOn(model, kernel);
  model.SetOutputBias(-10.0f);
  const PreparedKernel pk = model.Prepare(kernel);
  const double score = model.PredictScore(pk);
  EXPECT_NEAR(model.PredictSeconds(pk), std::exp(score), 1e-12);
  EXPECT_GT(model.PredictSeconds(pk), 0.0);
}

TEST(CostModel, SaveLoadReproducesPredictions) {
  ModelConfig config = SmallConfig();
  LearnedCostModel a(config);
  const auto kernel = SmallKernel();
  FitOn(a, kernel);
  const PreparedKernel pk = a.Prepare(kernel);
  const ir::TileConfig tile{{8, 64}};
  const double expected = a.PredictScore(pk, &tile);

  std::stringstream stream;
  a.Save(stream);
  config.seed = 777;  // different init; load must overwrite
  LearnedCostModel b(config);
  b.Load(stream);
  const PreparedKernel pk_b = b.Prepare(kernel);
  EXPECT_DOUBLE_EQ(b.PredictScore(pk_b, &tile), expected);
}

TEST(CostModel, SaveLoadFileRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "tpuperf_model_test.bin";
  ModelConfig config = SmallConfig();
  LearnedCostModel a(config);
  FitOn(a, SmallKernel());
  a.SaveToFile(path);
  LearnedCostModel b(config);
  b.LoadFromFile(path);
  EXPECT_TRUE(b.fitted());
  std::remove(path.c_str());
  EXPECT_THROW(b.LoadFromFile("/nonexistent/path/model.bin"),
               std::runtime_error);
}

TEST(CostModel, LoadRejectsBadMagic) {
  LearnedCostModel model(SmallConfig());
  std::stringstream stream("not a model file at all....");
  EXPECT_THROW(model.Load(stream), std::runtime_error);
}

TEST(CostModel, SetOutputBiasShiftsPrediction) {
  ModelConfig config = SmallConfig();
  config.use_tile_features = false;
  LearnedCostModel model(config);
  const auto kernel = SmallKernel();
  FitOn(model, kernel);
  const PreparedKernel pk = model.Prepare(kernel);
  const double before = model.PredictScore(pk);
  model.SetOutputBias(static_cast<float>(before) + 5.0f);
  // Bias replacement moves the output (head weights unchanged).
  EXPECT_GT(model.PredictScore(pk), before);
}

// ---- Cached plans never go stale --------------------------------------------

// A second kernel with a different node count, so the batch mixes segment
// lengths and the plan cache holds several buckets.
ir::Graph WiderKernel() {
  ir::GraphBuilder b;
  const ir::NodeId x = b.Parameter(ir::Shape({16, 32}));
  const ir::NodeId w = b.Parameter(ir::Shape({32, 64}));
  const ir::NodeId d = b.Dot(x, w);
  const ir::NodeId t = b.Unary(ir::OpCode::kTanh, d);
  b.Binary(ir::OpCode::kAdd, t, b.Unary(ir::OpCode::kExp, d));
  return std::move(b).Build();
}

// Fills the model's plan cache, then checks after every kind of parameter
// change that PredictBatch and PredictScore still equal a fresh tape forward
// pass bit for bit. The default tile model reduces with the LSTM, whose
// fused gate weights are the only concatenation a plan could have cached.
class PlanStalenessTest : public ::testing::Test {
 protected:
  PlanStalenessTest()
      : model_(SmallConfig()), kernels_{SmallKernel(), WiderKernel()} {
    for (const auto& kernel : kernels_) model_.FitNodeScaler(kernel);
    for (const auto& tile : tiles_) model_.FitTileScaler(tile);
    model_.FinishFitting();
    Reprepare();
  }

  // Prepared features depend on the precision (Prepare quantizes at int8).
  void Reprepare() {
    prepared_.clear();
    for (const auto& kernel : kernels_) prepared_.push_back(model_.Prepare(kernel));
    items_.clear();
    for (size_t k = 0; k < prepared_.size(); ++k) {
      for (const auto& tile : tiles_) items_.push_back({&prepared_[k], &tile});
    }
    batch_ = model_.PrepareBatch(items_);
  }

  // Asserts plan-replayed predictions equal the tape; returns the scores.
  std::vector<double> ExpectMatchesTape(const std::string& when) {
    SCOPED_TRACE(when);
    const std::vector<double> tape = testing_util::TapeBatch(model_, batch_);
    EXPECT_EQ(model_.PredictBatch(batch_), tape);
    for (size_t i = 0; i < items_.size(); ++i) {
      EXPECT_EQ(model_.PredictScore(*items_[i].kernel, items_[i].tile),
                testing_util::TapeScore(model_, *items_[i].kernel,
                                        items_[i].tile))
          << "item " << i;
    }
    return tape;
  }

  LearnedCostModel model_;
  std::vector<ir::Graph> kernels_;
  std::vector<ir::TileConfig> tiles_ = {ir::TileConfig{{16, 64}},
                                        ir::TileConfig{{1, 8}},
                                        ir::TileConfig{{4, 32}}};
  std::vector<PreparedKernel> prepared_;
  std::vector<BatchItem> items_;
  PreparedBatch batch_;
};

TEST_F(PlanStalenessTest, AdamStepsLoadBiasAndPrecisionKeepPlansExact) {
  const std::vector<double> initial = ExpectMatchesTape("cache filled");

  // Several optimizer steps on the rank loss.
  nn::AdamConfig adam_config;
  adam_config.learning_rate = 0.05;
  nn::Adam adam(adam_config);
  std::vector<double> targets;
  for (size_t i = 0; i < items_.size(); ++i) {
    targets.push_back(1.0 + static_cast<double>(i % 4));
  }
  for (int step = 0; step < 3; ++step) {
    nn::Tape tape;
    const nn::Tensor out = model_.ForwardBatch(tape, batch_, /*training=*/true);
    const nn::Tensor loss = nn::PairwiseRankLoss(
        tape, out, targets, nn::RankSurrogate::kHinge);
    tape.Backward(loss);
    const std::vector<nn::Parameter*> params = model_.params().params();
    adam.Step(params);
  }
  const std::vector<double> trained = ExpectMatchesTape("after Adam steps");
  EXPECT_NE(trained, initial);

  // Load of a different snapshot (another init seed).
  ModelConfig other_config = SmallConfig();
  other_config.seed = 4242;
  LearnedCostModel other(other_config);
  for (const auto& kernel : kernels_) other.FitNodeScaler(kernel);
  for (const auto& tile : tiles_) other.FitTileScaler(tile);
  other.FinishFitting();
  std::stringstream snapshot;
  other.Save(snapshot);
  model_.Load(snapshot);
  Reprepare();
  const std::vector<double> loaded = ExpectMatchesTape("after Load");
  EXPECT_NE(loaded, trained);

  model_.SetOutputBias(3.5f);
  const std::vector<double> biased = ExpectMatchesTape("after SetOutputBias");
  EXPECT_NE(biased, loaded);

  // Precision round trip: exact at int8 against the int8 tape, and back at
  // f32 the scores return to the pre-round-trip values.
  model_.SetPrecision(nn::Precision::kInt8);
  Reprepare();
  ExpectMatchesTape("at int8");
  model_.SetPrecision(nn::Precision::kFloat32);
  Reprepare();
  EXPECT_EQ(ExpectMatchesTape("back at f32"), biased);
}

TEST(PreparedCacheTest, ReusesPreparedKernels) {
  LearnedCostModel model(SmallConfig());
  const auto kernel = SmallKernel();
  FitOn(model, kernel);
  PreparedCache cache(model);
  const auto fp = kernel.Fingerprint();
  const PreparedKernel& a = cache.Get(kernel, fp);
  const PreparedKernel& b = cache.Get(kernel, fp);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Trainer, ShortTileTrainingReducesLoss) {
  const auto program = data::BuildProgram("RNNLM", 0);
  const std::vector<ir::Program> corpus = {program};
  sim::TpuSimulator simulator(sim::TpuTarget::V2());
  data::DatasetOptions options;
  options.max_tile_configs_per_kernel = 8;
  const auto dataset = data::BuildTileDataset(corpus, simulator, options);
  ASSERT_FALSE(dataset.kernels.empty());

  ModelConfig config = SmallConfig();
  config.train_steps = 300;
  LearnedCostModel model(config);
  PreparedCache cache(model);
  const std::vector<int> train_ids = {0};
  const TrainStats stats = TrainTileTask(model, dataset, train_ids, cache);
  EXPECT_LT(stats.final_loss, stats.first_loss);
  EXPECT_EQ(stats.steps, 300);
}

TEST(Trainer, ShortFusionTrainingReducesLoss) {
  const auto program = data::BuildProgram("RankingLike", 0);
  const std::vector<ir::Program> corpus = {program};
  sim::TpuSimulator simulator(sim::TpuTarget::V2());
  analytical::AnalyticalModel analytical(sim::TpuTarget::V2());
  data::DatasetOptions options;
  options.fusion_configs_per_program = 4;
  const auto dataset =
      data::BuildFusionDataset(corpus, simulator, analytical, options);
  ASSERT_FALSE(dataset.samples.empty());

  ModelConfig config = ModelConfig::FusionTaskDefault();
  config.hidden_dim = 16;
  config.opcode_embedding_dim = 8;
  config.train_steps = 300;
  LearnedCostModel model(config);
  PreparedCache cache(model);
  const std::vector<int> train_ids = {0};
  const TrainStats stats = TrainFusionTask(model, dataset, train_ids, cache);
  EXPECT_LT(stats.final_loss, stats.first_loss);
}

TEST(Trainer, ThrowsWithoutTrainingData) {
  sim::TpuSimulator simulator(sim::TpuTarget::V2());
  data::TileDataset empty;
  LearnedCostModel model(SmallConfig());
  PreparedCache cache(model);
  const std::vector<int> none;
  EXPECT_THROW(TrainTileTask(model, empty, none, cache),
               std::invalid_argument);
}

}  // namespace
}  // namespace tpuperf::core
