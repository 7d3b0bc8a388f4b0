#include "analytical/analytical_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ir/analysis.h"

namespace tpuperf::analytical {
namespace {

using ir::Graph;
using ir::KernelKind;
using ir::Node;
using ir::NodeId;
using ir::OpCode;
using ir::TileConfig;

// Heuristic achieved fractions of peak, tuned (like the paper's model) on a
// set of benchmark programs rather than derived from first principles.
constexpr double kMxuUtilization = 0.72;
constexpr double kVpuUtilization = 0.60;
constexpr double kHbmUtilization = 0.80;
// The model knows "larger transfers are more efficient" (App. A #3) and that
// each tile iteration pays DMA setup — but with heuristic constants that do
// not match the real machine (the simulator uses 1.2us setup and a 96KB
// ramp; the gap is part of what the learned model can recover).
constexpr double kIterationOverheadSec = 0.6e-6;
constexpr double kBandwidthRampBytes = 24e3;

// The hand-tuned model does understand systolic-array padding waste — tile
// extents are padded up to the array geometry (this is first-order on a
// TPU and XLA's production model captures it). What it does NOT know are
// the simulator's second-order terms: spills, bank conflicts, residency,
// SFU serialization and scheduling stalls.
double AlignmentEfficiency(std::int64_t extent, std::int64_t lanes) {
  if (extent <= 0) return 1.0;
  const std::int64_t rounded = ((extent + lanes - 1) / lanes) * lanes;
  return static_cast<double>(extent) / static_cast<double>(rounded);
}

// a * b rounded once, in a form the compiler cannot fuse into a following
// addition (a zero addend leaves the product's rounding unchanged).
double RoundedProduct(double a, double b) { return std::fma(a, b, 0.0); }

}  // namespace

AnalyticalModel::KernelSummary AnalyticalModel::Summarize(
    const Graph& kernel) const {
  KernelSummary summary;
  const NodeId root = kernel.RootId();
  if (root == ir::kInvalidNode) return summary;
  summary.has_root = true;
  summary.root_shape = kernel.node(root).shape;
  summary.totals = ir::analysis::AnalyzeKernel(kernel);

  std::vector<bool> weight_like(static_cast<size_t>(kernel.num_nodes()), false);
  for (const Node& user : kernel.nodes()) {
    if ((user.op == OpCode::kDot || user.op == OpCode::kConvolution) &&
        user.operands.size() >= 2) {
      weight_like[static_cast<size_t>(user.operands[1])] = true;
    }
  }
  for (const Node& n : kernel.nodes()) {
    if (n.op != OpCode::kParameter && n.op != OpCode::kConstant) continue;
    summary.inputs.push_back({static_cast<double>(n.shape.byte_size()),
                              weight_like[static_cast<size_t>(n.id)]});
  }
  for (const NodeId id : kernel.OutputIds()) {
    summary.output_bytes.push_back(
        static_cast<double>(kernel.node(id).shape.byte_size()));
  }
  return summary;
}

double AnalyticalModel::EstimateRuntime(const Graph& kernel,
                                        const TileConfig& tile) const {
  return EstimateRuntime(Summarize(kernel), tile);
}

double AnalyticalModel::EstimateRuntime(const KernelSummary& summary,
                                        const TileConfig& tile) const {
  if (!summary.has_root) return 0;
  const std::int64_t iters = std::max<std::int64_t>(
      1, ir::TileIterations(tile, summary.root_shape));
  const double inv_iters = 1.0 / static_cast<double>(iters);
  const ir::analysis::CostSummary& totals = summary.totals;

  // Computation estimate: MXU and vector pipelines with heuristic base
  // utilizations and systolic-array padding waste from the tile extents;
  // transcendentals are folded into the vector stream (the model has no
  // notion of the special functional unit).
  double mxu_align = 1.0;
  if (totals.mxu_flops > 0 && !tile.dims.empty()) {
    const std::int64_t minor = tile.dims.back();
    const std::int64_t second =
        tile.dims.size() >= 2 ? tile.dims[tile.dims.size() - 2] : 1;
    mxu_align = AlignmentEfficiency(minor, target_.mxu_dim) *
                AlignmentEfficiency(second, 8);
    mxu_align = std::max(mxu_align, 0.05);
  }
  const double mxu_sec =
      totals.mxu_flops * inv_iters /
      (target_.PeakMatmulFlops() * kMxuUtilization * mxu_align);
  const double vec_sec =
      (totals.vector_ops + totals.transcendental_ops) * inv_iters /
      (target_.PeakVectorOps() * kVpuUtilization);
  const double compute_sec = std::max(mxu_sec, vec_sec);

  // Transfer estimate: weights are always streamed once per iteration when
  // they do not tile along the output; other inputs and outputs move
  // proportionally to the tile. Flat nominal bandwidth.
  // The rounding of each step is spelled out rather than left to the
  // compiler's FMA contraction, which varies with the surrounding loop
  // shape: input terms are rounded products added to the sum, output terms
  // are fused into it (what the optimized straight-line form of this
  // estimate computed on FMA hardware).
  double bytes_per_tile = 0;
  for (const KernelSummary::Input& input : summary.inputs) {
    bytes_per_tile += input.weight_like ? input.bytes
                                        : RoundedProduct(input.bytes, inv_iters);
  }
  for (const double bytes : summary.output_bytes) {
    bytes_per_tile = std::fma(bytes, inv_iters, bytes_per_tile);
  }
  const double efficiency =
      bytes_per_tile / (bytes_per_tile + kBandwidthRampBytes);
  const double transfer_sec =
      kIterationOverheadSec +
      bytes_per_tile /
          (target_.hbm_bytes_per_sec * kHbmUtilization *
           std::max(efficiency, 1e-3));

  // Per-iteration max of the two, times the iteration count (App. A).
  return static_cast<double>(iters) * std::max(compute_sec, transfer_sec);
}

TileConfig AnalyticalModel::SelectBestTile(
    const Graph& kernel, std::span<const TileConfig> candidates) const {
  const KernelSummary summary = Summarize(kernel);
  const TileConfig* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const TileConfig& tile : candidates) {
    const double cost = EstimateRuntime(summary, tile);
    if (cost < best_cost) {
      best_cost = cost;
      best = &tile;
    }
  }
  return best != nullptr ? *best : TileConfig{};
}

std::optional<double> AnalyticalModel::EstimateAbsoluteRuntime(
    const Graph& kernel, const TileConfig& tile) const {
  const KernelKind kind = ir::Kernel::Classify(kernel);
  if (kind == KernelKind::kDataFormatting) {
    // "The analytical model does not support kernels without tile-size
    // options" (§5.2) — data-formatting kernels have no real tiling choice.
    return std::nullopt;
  }
  const double raw = EstimateRuntime(kernel, tile);
  const auto it = fusion_coefficients_.find(kind);
  const double coeff = it == fusion_coefficients_.end() ? 1.0 : it->second;
  return raw * coeff;
}

void AnalyticalModel::CalibrateFusionCoefficients(
    std::span<const CalibrationSample> samples) {
  std::map<KernelKind, double> true_total;
  std::map<KernelKind, double> est_total;
  for (const auto& s : samples) {
    const KernelKind kind = ir::Kernel::Classify(*s.kernel);
    if (kind == KernelKind::kDataFormatting) continue;
    true_total[kind] += s.true_runtime_sec;
    est_total[kind] += EstimateRuntime(*s.kernel, s.tile);
  }
  fusion_coefficients_.clear();
  for (const auto& [kind, total] : true_total) {
    const double est = est_total[kind];
    fusion_coefficients_[kind] = est > 0 ? total / est : 1.0;
  }
}

}  // namespace tpuperf::analytical
