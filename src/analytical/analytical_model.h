// The hand-tuned analytical performance model — the paper's baseline.
//
// Reproduces the structure described in paper §2.3 and Appendix A: the model
// "estimates the kernel's data transfer time and computation time, and takes
// the maximum of the two", per tile iteration, relying on heuristics because
// it runs before code generation. Its deliberate blind spots relative to the
// simulated hardware (see sim/simulator.h) are:
//
//   * flat nominal HBM bandwidth — no per-transfer latency, no
//     size-dependent efficiency ramp;
//   * fixed heuristic utilization per functional unit — no tile-alignment
//     padding waste;
//   * no scratchpad-pressure spills, bank conflicts, or issue stalls;
//   * weights always assumed re-streamed (no residency amortization);
//   * transcendentals costed at vector-unit throughput.
//
// For the fusion task the model's outputs are rescaled by per-kernel-kind
// coefficients calibrated on default-configuration runs, exactly as §5.2
// describes; kernels without tile-size options are unsupported and the model
// returns nullopt for them.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "ir/analysis.h"
#include "ir/graph.h"
#include "ir/tile.h"
#include "sim/target.h"

namespace tpuperf::analytical {

class AnalyticalModel {
 public:
  explicit AnalyticalModel(sim::TpuTarget target)
      : target_(std::move(target)) {}

  // Estimated runtime (seconds, model scale) of `kernel` under `tile`.
  // This is the quantity used to *rank tile sizes within a kernel* — its
  // scale is only meaningful relative to other tiles of the same kernel.
  // Equal to EstimateRuntime(Summarize(kernel), tile).
  double EstimateRuntime(const ir::Graph& kernel,
                         const ir::TileConfig& tile) const;

  // The tile-independent facts of a kernel that its runtime estimate reads.
  // Summarizing once and costing each candidate tile from the summary gives
  // bit-identical estimates without re-analyzing the graph per tile.
  struct KernelSummary {
    bool has_root = false;  // false for empty graphs (estimate 0)
    ir::Shape root_shape;
    ir::analysis::CostSummary totals;  // AnalyzeKernel(kernel)
    // Parameter and constant inputs in node order: bytes, and whether the
    // input feeds a dot/convolution as its weight (operand 1).
    struct Input {
      double bytes = 0;
      bool weight_like = false;
    };
    std::vector<Input> inputs;
    std::vector<double> output_bytes;  // per OutputIds() entry, in order
  };
  KernelSummary Summarize(const ir::Graph& kernel) const;
  double EstimateRuntime(const KernelSummary& summary,
                         const ir::TileConfig& tile) const;

  // Best tile according to the model among `candidates` — what the XLA
  // compiler would pick by default (§2.3). Ties keep the first candidate.
  ir::TileConfig SelectBestTile(const ir::Graph& kernel,
                                std::span<const ir::TileConfig> candidates) const;

  // Absolute-runtime estimate for the fusion task: the tile-ranking estimate
  // rescaled by the per-kernel-kind coefficient. Returns nullopt for kernel
  // kinds the model does not support (data-formatting kernels without
  // tile-size options — ~1% of kernels in the paper's dataset).
  std::optional<double> EstimateAbsoluteRuntime(
      const ir::Graph& kernel, const ir::TileConfig& tile) const;

  // Calibrates fusion-task coefficients: for each kernel kind, the ratio of
  // total true runtime to total model-scale estimate over a calibration set
  // (the test programs under their default fusion configuration, §5.2).
  struct CalibrationSample {
    const ir::Graph* kernel = nullptr;
    ir::TileConfig tile;
    double true_runtime_sec = 0;
  };
  void CalibrateFusionCoefficients(std::span<const CalibrationSample> samples);

  const std::map<ir::KernelKind, double>& fusion_coefficients() const {
    return fusion_coefficients_;
  }

  const sim::TpuTarget& target() const noexcept { return target_; }

 private:
  sim::TpuTarget target_;
  std::map<ir::KernelKind, double> fusion_coefficients_;
};

}  // namespace tpuperf::analytical
