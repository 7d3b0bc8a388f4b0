// Task evaluation harness producing the paper's per-application metrics
// (Tables 2, 3, 4, 8): Tile-Size APE + Kendall's tau for the tile-size
// task, MAPE + Kendall's tau for the fusion task, for any scorer (learned
// model or analytical baseline).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "dataset/datasets.h"

namespace tpuperf::core {

// Scores every measured tile config of one kernel: element c of the result
// scores kernel.configs[c]; lower = predicted faster. Scale-free.
using TileScorer =
    std::function<std::vector<double>(const data::TileKernelData& kernel)>;

// Estimates absolute runtime (seconds) of one fusion sample, or nullopt if
// the estimator does not support the kernel (data-formatting kernels for
// the analytical model, §5.2).
using FusionEstimator =
    std::function<std::optional<double>(const data::FusionSample& sample)>;

struct TileTaskResult {
  std::string application;  // program name
  double ape = 0;           // Tile-Size APE (Eq. 2)
  double mean_kendall = 0;  // average within-kernel Kendall's tau
  int kernels = 0;
};

struct FusionTaskResult {
  std::string application;
  double mape = 0;
  double kendall = 0;
  int kernels = 0;
};

// Evaluates a tile scorer on the given programs (one result per program).
std::vector<TileTaskResult> EvaluateTileTask(
    const data::TileDataset& dataset, std::span<const int> program_ids,
    std::span<const ir::Program> corpus, const TileScorer& scorer);

// Evaluates a fusion runtime estimator on kernels with true runtime >=
// min_runtime_sec (the paper reports kernels >= 5us). Samples where the
// estimator returns nullopt are skipped.
std::vector<FusionTaskResult> EvaluateFusionTask(
    const data::FusionDataset& dataset, std::span<const int> program_ids,
    std::span<const ir::Program> corpus, const FusionEstimator& estimator,
    double min_runtime_sec = 5e-6);

// ---- Ready-made scorers ----------------------------------------------------

// Packs a kernel's configs into one PredictBatch; by the PredictBatch
// contract each score equals PredictScore(kernel, config) bit for bit.
TileScorer MakeLearnedTileScorer(const LearnedCostModel& model,
                                 PreparedCache& cache);
TileScorer MakeAnalyticalTileScorer(
    const analytical::AnalyticalModel& analytical);

// `skip_unsupported_kinds` mirrors §5.2: data-formatting kernels are
// excluded for both models so comparisons cover the same kernel set.
FusionEstimator MakeLearnedFusionEstimator(const LearnedCostModel& model,
                                           PreparedCache& cache,
                                           bool skip_unsupported_kinds = true);
FusionEstimator MakeAnalyticalFusionEstimator(
    const analytical::AnalyticalModel& analytical);

// Mean/median helpers over result vectors.
struct Aggregate {
  double median = 0;
  double mean = 0;
  double stddev = 0;
};
Aggregate AggregateApe(std::span<const TileTaskResult> results);
Aggregate AggregateKendall(std::span<const TileTaskResult> results);
Aggregate AggregateMape(std::span<const FusionTaskResult> results);
Aggregate AggregateFusionKendall(std::span<const FusionTaskResult> results);

}  // namespace tpuperf::core
