// Tests for the analytical baseline: sanity of estimates, tile selection,
// fusion-coefficient calibration, and its documented blind spots relative to
// the simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <utility>

#include "analytical/analytical_model.h"
#include "dataset/families.h"
#include "dataset/fusion.h"
#include "ir/builder.h"
#include "sim/simulator.h"

namespace tpuperf::analytical {
namespace {

using ir::GraphBuilder;
using ir::NodeId;
using ir::OpCode;
using ir::Shape;
using ir::TileConfig;

ir::Graph MatmulKernel(std::int64_t m, std::int64_t k, std::int64_t n) {
  GraphBuilder b;
  b.Dot(b.Parameter(Shape({m, k})), b.Parameter(Shape({k, n})));
  return std::move(b).Build();
}

ir::Graph ReshapeOnlyKernel() {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({8, 8}));
  b.Reshape(x, Shape({64}));
  return std::move(b).Build();
}

TEST(Analytical, EstimatesArePositiveAndMonotone) {
  const AnalyticalModel model(sim::TpuTarget::V2());
  const auto small = MatmulKernel(128, 128, 128);
  const auto big = MatmulKernel(512, 512, 512);
  const TileConfig tile{{128, 128}};
  EXPECT_GT(model.EstimateRuntime(small, tile), 0.0);
  EXPECT_GT(model.EstimateRuntime(big, tile),
            model.EstimateRuntime(small, tile));
}

TEST(Analytical, SelectBestTileReturnsACandidate) {
  const AnalyticalModel model(sim::TpuTarget::V2());
  const sim::TpuSimulator simulator(sim::TpuTarget::V2());
  const auto kernel = MatmulKernel(512, 512, 512);
  const auto candidates = simulator.EnumerateTiles(kernel, 64);
  const TileConfig best = model.SelectBestTile(kernel, candidates);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), best),
            candidates.end());
  // The selected tile must be no worse (by the model) than every candidate.
  for (const auto& t : candidates) {
    EXPECT_LE(model.EstimateRuntime(kernel, best),
              model.EstimateRuntime(kernel, t) + 1e-15);
  }
}

TEST(Analytical, DataFormattingKernelsUnsupported) {
  const AnalyticalModel model(sim::TpuTarget::V2());
  const auto kernel = ReshapeOnlyKernel();
  EXPECT_EQ(ir::Kernel::Classify(kernel), ir::KernelKind::kDataFormatting);
  EXPECT_FALSE(
      model.EstimateAbsoluteRuntime(kernel, TileConfig{{64}}).has_value());
}

TEST(Analytical, CalibrationMatchesTotalsPerKind) {
  AnalyticalModel model(sim::TpuTarget::V2());
  const auto k1 = MatmulKernel(256, 256, 256);
  const auto k2 = MatmulKernel(512, 256, 128);
  const TileConfig t1{{128, 256}};
  const TileConfig t2{{128, 128}};
  const std::vector<AnalyticalModel::CalibrationSample> samples = {
      {&k1, t1, 2e-4}, {&k2, t2, 3e-4}};
  model.CalibrateFusionCoefficients(samples);
  // After calibration, the per-kind totals match the true totals exactly.
  const double est = *model.EstimateAbsoluteRuntime(k1, t1) +
                     *model.EstimateAbsoluteRuntime(k2, t2);
  EXPECT_NEAR(est, 5e-4, 1e-9);
  EXPECT_EQ(model.fusion_coefficients().size(), 1u);  // both conv-fusion kind
}

TEST(Analytical, UncalibratedCoefficientDefaultsToOne) {
  const AnalyticalModel model(sim::TpuTarget::V2());
  const auto kernel = MatmulKernel(128, 128, 128);
  const TileConfig tile{{128, 128}};
  EXPECT_DOUBLE_EQ(*model.EstimateAbsoluteRuntime(kernel, tile),
                   model.EstimateRuntime(kernel, tile));
}

// The documented blind spots (simulator residency/latency/efficiency vs the
// model's heuristics) make the model's relative error *configuration
// dependent* within a single kernel — which is exactly the signal a learned
// model can exploit and a constant rescaling cannot remove.
TEST(Analytical, RelativeErrorIsConfigurationDependent) {
  const AnalyticalModel model(sim::TpuTarget::V2());
  const sim::TpuSimulator simulator(sim::TpuTarget::V2());
  const auto kernel = MatmulKernel(8192, 64, 64);  // 16KB resident weights
  const TileConfig tiny{{64, 64}};                 // many iterations
  const TileConfig big = simulator.DefaultTile(kernel);
  const double ratio_tiny = model.EstimateRuntime(kernel, tiny) /
                            simulator.Simulate(kernel, tiny).runtime_sec;
  const double ratio_big = model.EstimateRuntime(kernel, big) /
                           simulator.Simulate(kernel, big).runtime_sec;
  EXPECT_GT(std::abs(std::log(ratio_tiny / ratio_big)), 0.1);
}

TEST(Analytical, AgreesWithSimulatorToFirstOrder) {
  // On a streaming elementwise kernel (no weights, bandwidth bound) the two
  // share first-order structure and should land within a small factor.
  const AnalyticalModel model(sim::TpuTarget::V2());
  const sim::TpuSimulator simulator(sim::TpuTarget::V2());
  ir::GraphBuilder b;
  b.Binary(OpCode::kAdd, b.Parameter(Shape({2048, 512})),
           b.Parameter(Shape({2048, 512})));
  const auto kernel = std::move(b).Build();
  const TileConfig tile{{512, 512}};
  const double est = model.EstimateRuntime(kernel, tile);
  const double true_rt = simulator.Simulate(kernel, tile).runtime_sec;
  EXPECT_GT(est / true_rt, 0.3);
  EXPECT_LT(est / true_rt, 3.0);
}

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// SelectBestTile summarizes a kernel once and costs every candidate from the
// summary. Over every distinct default-fusion kernel of the corpus and every
// enumerated tile, the hoisted cost must equal EstimateRuntime(kernel, tile)
// bit for bit, and the chosen tile must be the first argmin.
TEST(Analytical, HoistedTileCostIsBitExact) {
  const AnalyticalModel model(sim::TpuTarget::V2());
  const sim::TpuSimulator simulator(sim::TpuTarget::V2());
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  long checked = 0;
  for (const ir::Program& program : data::GenerateCorpus()) {
    const data::EdgeList edges = data::EdgeList::FromGraph(program.graph);
    const auto kernels = data::ApplyFusion(
        program.graph, edges, data::DefaultFusion(program.graph, edges));
    for (const ir::Kernel& kernel : kernels) {
      const ir::Graph& graph = kernel.graph;
      if (!seen.emplace(graph.Fingerprint(), graph.StructuralSignature())
               .second) {
        continue;
      }
      const auto tiles = simulator.EnumerateTiles(graph, 256);
      if (tiles.empty()) continue;
      const AnalyticalModel::KernelSummary summary = model.Summarize(graph);
      size_t first_argmin = 0;
      double best = std::numeric_limits<double>::infinity();
      for (size_t t = 0; t < tiles.size(); ++t) {
        const double direct = model.EstimateRuntime(graph, tiles[t]);
        ASSERT_EQ(Bits(model.EstimateRuntime(summary, tiles[t])), Bits(direct))
            << program.name << " tile " << tiles[t].ToString();
        if (direct < best) {
          best = direct;
          first_argmin = t;
        }
        ++checked;
      }
      EXPECT_EQ(model.SelectBestTile(graph, tiles), tiles[first_argmin])
          << program.name;
    }
  }
  EXPECT_GT(checked, 1000);
}

}  // namespace
}  // namespace tpuperf::analytical
