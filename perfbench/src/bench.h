// The repository benchmark: workload entry points and the set-up they share.
//
// Every workload takes its inputs from --seed, measures for --seconds, checks
// the library's outputs, and reports named metrics. With --trace 1 it reports
// the per-layer metrics instead, from spans recorded around calls into the
// library's public functions (see README.md for the metric -> layer map).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytical/analytical_model.h"
#include "core/cost_model.h"
#include "core/trainer.h"
#include "dataset/datasets.h"
#include "harness.h"
#include "metrics.h"
#include "sim/simulator.h"

namespace perfbench {

// A correctness check failed: the run exits nonzero and reports no numbers.
class CheckFailed : public std::runtime_error {
 public:
  explicit CheckFailed(const std::string& what) : std::runtime_error(what) {}
};

inline void Check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

// Bit-exactness check; the failure names both values.
inline void CheckSame(double got, double want, const std::string& what) {
  Check(got == want, what + " (" + JsonNumber(got) + " vs " +
                         JsonNumber(want) + ")");
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // Chrome trace of a traced run ("" = not written)
};

// State of one run: options, the tracer, the result and the operation
// counters of the final result line.
struct Run {
  RunOptions options;
  Tracer tracer;
  Result result;
  long attempted = 0;
  long failed = 0;
  int service_workers = 0;  // echoed in the host block
  // peak_rss_mb when a workload read it at a fixed point of the run; 0 reads
  // it when the run ends.
  double peak_rss_mb = 0;
  // Workload-specific attribution of a traced run (autotuner, serve, eval
  // and replay-coverage figures that only one workload has), printed in the
  // report line rather than as metrics.
  std::map<std::string, double> attribution;

  explicit Run(RunOptions o) : options(std::move(o)), tracer(options.trace) {}

  // Adds an end-to-end metric (untraced runs only).
  void EndToEnd(const std::string& name, double value,
                const std::string& unit) {
    if (!options.trace) result.Add(name, value, unit);
  }
  // Adds a per-layer metric (traced runs only).
  void Layer(const std::string& name, double value, const std::string& unit) {
    if (options.trace) result.Add(name, value, unit);
  }
  // Adds a figure to the traced run's attribution (traced runs only).
  void Attribute(const std::string& name, double value) {
    if (options.trace) attribution[name] = value;
  }
};

// Library thread widths, part of each workload's definition.
inline constexpr int kClosedLoopPoolWidth = 1;
inline constexpr int kServePoolWidth = 1;
inline constexpr int kServeWorkers = 1;

// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepetitions = 3;

// Training steps of the model a workload serves or tunes with.
inline constexpr int kSetupTrainSteps = 400;

// The model seed behind every deterministic quality metric (ModelConfig's
// default).
inline constexpr std::uint64_t kReferenceModelSeed = 42;

// The corpus, split, simulated TPU and datasets every workload starts from.
struct World {
  std::vector<tpuperf::ir::Program> corpus;
  tpuperf::data::SplitSpec split;
  tpuperf::sim::TpuSimulator simulator{tpuperf::sim::TpuTarget::V2()};
  tpuperf::analytical::AnalyticalModel analytical{
      tpuperf::sim::TpuTarget::V2()};
  tpuperf::data::TileDataset tile;
  tpuperf::data::FusionDataset fusion;
};

struct DatasetNeeds {
  bool tile = false;
  bool fusion = false;
};

// Generates the corpus and builds the requested datasets; spans
// dataset.corpus and dataset.build.
std::unique_ptr<World> BuildWorld(Run& run, DatasetNeeds needs);

// A trained model with its prepared-kernel cache.
struct Trained {
  std::unique_ptr<tpuperf::core::LearnedCostModel> model;
  std::unique_ptr<tpuperf::core::PreparedCache> cache;
  tpuperf::core::TrainStats stats;
};

// Trains the Table-2 tile model (rank loss, GraphSAGE + LSTM) or the fusion
// model (log-MSE, GraphSAGE + Transformer) for `steps` steps with
// `model_seed` on the training split.
Trained TrainTileModel(const World& world, int steps,
                       std::uint64_t model_seed);
Trained TrainFusionModel(const World& world, int steps,
                         std::uint64_t model_seed);

// Repeats `setup` kSetupRepetitions times (once when traced), reports the
// median wall time as setup_s and returns the last repetition's product.
template <typename F>
auto RepeatSetup(Run& run, F&& setup) {
  const int reps = run.options.trace ? 1 : kSetupRepetitions;
  std::vector<double> seconds;
  decltype(setup()) product{};
  for (int i = 0; i < reps; ++i) {
    product = {};  // release the previous repetition before building anew
    const auto start = Clock::now();
    product = setup();
    seconds.push_back(SecondsSince(start));
  }
  run.EndToEnd("setup_s", Median(seconds), "s");
  return product;
}

// Set-up span totals as per-layer metrics: dataset.corpus_s, dataset.build_s
// and core.train_s (the trainer calls that produced the workload's models:
// spans core.setup_train, core.train_rank and core.train_mse).
void ReportSetupLayers(Run& run);

// Traced runs: tracing overhead from an untraced and a traced phase of the
// same work, as the ratio by which tracing lowered the rate (1 = none).
void ReportOverhead(Run& run, double untraced_rate, double traced_rate);

// ---- Layer probes of traced runs (layers.cpp) ------------------------------
//
// Every traced run replays the layers below on its own inputs through their
// public calls, so each per-layer metric has a value on every workload.

// Unit costs of the non-inference layers in microseconds per call.
struct LayerCosts {
  double measure_us = 0;
  double enumerate_us = 0;
  double select_best_us = 0;
  double apply_fusion_us = 0;
  double fingerprint_us = 0;
  double flip_edge_us = 0;
  double default_fusion_us = 0;
};

// Times the simulator, the analytical model, fusion and fingerprinting on
// seeded RandomFusion configs of `programs` (and on their kernels).
LayerCosts MeasureLayerCosts(const World& world,
                             const std::vector<int>& programs,
                             std::uint64_t seed);
void ReportLayerCosts(Run& run, const LayerCosts& costs);

// Inference work to replay: distinct kernels, and batches of (kernel index,
// tile) items in the order the workload scored them.
struct InferenceWork {
  using Item = std::pair<std::size_t, const tpuperf::ir::TileConfig*>;
  std::vector<const tpuperf::ir::Graph*> kernels;
  std::vector<std::vector<Item>> batches;
  // Optional, per batch and item: what the workload was given, in seconds
  // (as LearnedEvaluator returns them) or as scores (as the service returns
  // them). The replay must reproduce them exactly.
  std::vector<std::vector<double>> expected_seconds;
  std::vector<std::vector<double>> expected_scores;
};

struct InferenceCosts {
  double prepare_s = 0;  // Prepare, all kernels
  double pack_s = 0;     // PrepareBatch, all batches
  double forward_s = 0;  // PredictBatchSeconds, all batches
  double compile_s = 0;  // CompilePlan, one per batch-shape bucket
  double replay_s = 0;   // PredictBatchWithPlan, all batches
  long kernels = 0;
  long items = 0;
  long batches = 0;
  long plans = 0;
};

// Replays `work` on `model`: Prepare per kernel, then per batch PrepareBatch,
// PredictBatchSeconds, CompilePlan for each new serving bucket
// (serve::PlanCache::Bucket) and PredictBatchWithPlan. Plan replay must equal
// PredictBatch exactly, and the expected values must be reproduced.
InferenceCosts ReplayInference(const tpuperf::core::LearnedCostModel& model,
                               const InferenceWork& work);
// features.prepare_us, core.batch_items_mean, core.pack_us_per_item,
// core.forward_us_per_item, plan.compile_us, plan.replay_us_per_item.
void ReportInference(Run& run, const InferenceCosts& costs);

// Per-step costs of a trained model's task, replayed from public calls.
struct StepCosts {
  std::string task;  // "rank" or "mse"
  double forward_ms = 0;
  double backward_ms = 0;
  double adam_ms = 0;
  double heap_allocs = 0;  // tape-arena heap allocations per warm step
  double trainer_ms = 0;   // the trainer's own wall time per step
};

// Replays minibatches sampled the way the trainers sample them through
// ForwardBatch and the task's loss, Tape::Backward on a TapeArena and
// Adam::Step. Updates the model's parameters.
StepCosts ReplayTrainSteps(const World& world, Trained& trained,
                           std::mt19937_64& rng);
// nn.forward_ms, nn.backward_ms, nn.adam_ms, nn.tape_heap_allocs as means
// over the tasks, coverage.core.step (replayed / trainer time per step), and
// per task core.<task>.step_residual_ms in the attribution.
void ReportTrainSteps(Run& run, const std::vector<StepCosts>& tasks);

// Held-out evaluation on the test split: per application, the mean Kendall
// tau of a tile model or the MAPE of a fusion model.
struct Evaluation {
  std::vector<double> values;
  double seconds = 0;
};
Evaluation EvaluateTile(Run& run, const World& world,
                        const tpuperf::core::LearnedCostModel& model,
                        tpuperf::core::PreparedCache& cache);
Evaluation EvaluateFusion(Run& run, const World& world,
                          const tpuperf::core::LearnedCostModel& model,
                          tpuperf::core::PreparedCache& cache);
// eval.evaluate_ms (total) and eval.groups over `evaluations`.
void ReportEvaluations(Run& run, const std::vector<Evaluation>& evaluations);

// Inference work of a held-out tile evaluation: the test programs' tile
// kernels, each with its measured tiles in batches of up to 64.
InferenceWork TileTestWork(const World& world);

// Deterministic 64-bit mix for deriving per-item seeds from --seed.
std::uint64_t Mix(std::uint64_t a, std::uint64_t b);

void RunTileTune(Run& run);
void RunFusionTune(Run& run);
void RunTrain(Run& run);
void RunServe(Run& run);

}  // namespace perfbench
