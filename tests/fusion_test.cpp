// Tests for the fusion machinery: edge lists, partition validity (cycle
// detection, group size bounds), kernel extraction semantics, the default
// heuristic, random-configuration sampling (parameterized over seeds), and
// the per-group kernel cache the fusion autotuner anneals through.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analytical/analytical_model.h"
#include "dataset/families.h"
#include "dataset/fusion.h"
#include "ir/builder.h"
#include "sim/simulator.h"

namespace tpuperf::data {
namespace {

using ir::GraphBuilder;
using ir::NodeId;
using ir::OpCode;
using ir::Shape;

// param -> exp -> tanh -> (output); param -> abs -> tanh (diamond-ish).
ir::Graph ChainGraph() {
  GraphBuilder b;
  const NodeId p = b.Parameter(Shape({16, 16}));
  const NodeId e = b.Unary(OpCode::kExp, p);
  b.Unary(OpCode::kTanh, e);
  return std::move(b).Build();
}

// A diamond: fusing both outer edges while leaving the middle unfused
// creates a group cycle.
ir::Graph DiamondGraph() {
  GraphBuilder b;
  const NodeId p = b.Parameter(Shape({16, 16}));
  const NodeId a = b.Unary(OpCode::kExp, p);
  const NodeId left = b.Unary(OpCode::kAbs, a);
  const NodeId right = b.Unary(OpCode::kTanh, a);
  const NodeId mid = b.Unary(OpCode::kNegate, left);
  b.Binary(OpCode::kAdd, mid, right);
  return std::move(b).Build();
}

TEST(EdgeList, ExcludesParameterProducers) {
  const auto g = ChainGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  // param->exp carries no decision; exp->tanh does.
  ASSERT_EQ(edges.size(), 1);
  EXPECT_EQ(g.node(edges.edges[0].producer).op, OpCode::kExp);
  EXPECT_EQ(g.node(edges.edges[0].consumer).op, OpCode::kTanh);
}

TEST(FusionConfig, FingerprintDistinguishesConfigs) {
  FusionConfig a;
  a.fuse_edge = {true, false, true};
  FusionConfig b;
  b.fuse_edge = {false, true, true};
  FusionConfig c;
  c.fuse_edge = {true, false, true};
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.Fingerprint(), c.Fingerprint());
}

TEST(DerivePartition, AllUnfusedIsValid) {
  const auto g = DiamondGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  FusionConfig config;
  config.fuse_edge.assign(static_cast<size_t>(edges.size()), false);
  const auto partition = DerivePartition(g, edges, config);
  ASSERT_TRUE(partition.has_value());
  // Every computation node is its own group.
  std::set<int> groups(partition->begin(), partition->end());
  EXPECT_EQ(static_cast<int>(groups.size()), g.num_nodes());
}

TEST(DerivePartition, MergesFusedEdges) {
  const auto g = ChainGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  FusionConfig config;
  config.fuse_edge = {true};
  const auto partition = DerivePartition(g, edges, config);
  ASSERT_TRUE(partition.has_value());
  // exp (node 1) and tanh (node 2) share a group.
  EXPECT_EQ((*partition)[1], (*partition)[2]);
}

TEST(DerivePartition, RejectsGroupCycles) {
  const auto g = DiamondGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  // Find edge ids: a->left, a->right, left->mid, mid->add, right->add.
  FusionConfig config;
  config.fuse_edge.assign(static_cast<size_t>(edges.size()), false);
  // Fuse a with right, and mid with add: then group {a, right, add} would
  // need mid's group both after a's group (left->mid) and before it
  // (mid->add into the same group as a) — a cycle.
  int a_right = -1, mid_add = -1, right_add = -1;
  for (int e = 0; e < edges.size(); ++e) {
    const auto& edge = edges.edges[static_cast<size_t>(e)];
    if (g.node(edge.producer).op == OpCode::kExp &&
        g.node(edge.consumer).op == OpCode::kTanh) {
      a_right = e;
    }
    if (g.node(edge.producer).op == OpCode::kNegate) mid_add = e;
    if (g.node(edge.producer).op == OpCode::kTanh) right_add = e;
  }
  ASSERT_GE(a_right, 0);
  ASSERT_GE(right_add, 0);
  ASSERT_GE(mid_add, 0);
  // Fusing exp+tanh alone is acyclic: {exp,tanh} -> abs -> negate -> add.
  config.fuse_edge[static_cast<size_t>(a_right)] = true;
  ASSERT_TRUE(DerivePartition(g, edges, config).has_value());
  // Also fusing tanh+add pulls `add` into the group; the abs/negate branch
  // now both consumes from and produces into {exp, tanh, add}: a cycle.
  config.fuse_edge[static_cast<size_t>(right_add)] = true;
  EXPECT_FALSE(DerivePartition(g, edges, config).has_value());
  // Fusing the whole diamond into one group is acyclic again.
  FusionConfig all;
  all.fuse_edge.assign(static_cast<size_t>(edges.size()), true);
  EXPECT_TRUE(DerivePartition(g, edges, all).has_value());
}

TEST(DerivePartition, EnforcesGroupSizeBound) {
  const auto g = DiamondGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  FusionConfig config;
  config.fuse_edge.assign(static_cast<size_t>(edges.size()), true);
  FusionLimits limits;
  limits.max_group_nodes = 2;
  EXPECT_FALSE(DerivePartition(g, edges, config, limits).has_value());
}

TEST(ExtractKernels, CrossEdgesBecomeParamsAndOutputs) {
  const auto g = ChainGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  FusionConfig unfused;
  unfused.fuse_edge = {false};
  const auto kernels = ApplyFusion(g, edges, unfused);
  ASSERT_EQ(kernels.size(), 2u);
  // First kernel: param + exp, exp marked output.
  const auto& k0 = kernels[0].graph;
  EXPECT_FALSE(k0.Validate().has_value());
  bool exp_is_output = false;
  for (const auto& n : k0.nodes()) {
    if (n.op == OpCode::kExp) exp_is_output = n.is_output;
  }
  EXPECT_TRUE(exp_is_output);
  // Second kernel: a parameter standing for exp's value + tanh.
  const auto& k1 = kernels[1].graph;
  EXPECT_FALSE(k1.Validate().has_value());
  EXPECT_EQ(k1.ParameterIds().size(), 1u);
}

TEST(ExtractKernels, FusedChainYieldsOneKernel) {
  const auto g = ChainGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  FusionConfig fused;
  fused.fuse_edge = {true};
  const auto kernels = ApplyFusion(g, edges, fused);
  ASSERT_EQ(kernels.size(), 1u);
  int compute_nodes = 0;
  for (const auto& n : kernels[0].graph.nodes()) {
    if (n.op != OpCode::kParameter && n.op != OpCode::kConstant) {
      ++compute_nodes;
    }
  }
  EXPECT_EQ(compute_nodes, 2);  // exp + tanh
}

TEST(ExtractKernels, PreservesComputeNodeCount) {
  const ir::Program program = BuildProgram("NMT", 0);
  const EdgeList edges = EdgeList::FromGraph(program.graph);
  int program_compute = 0;
  for (const auto& n : program.graph.nodes()) {
    if (n.op != OpCode::kParameter && n.op != OpCode::kConstant &&
        n.op != OpCode::kIota) {
      ++program_compute;
    }
  }
  for (const double p : {0.0, 0.4, 0.9}) {
    std::mt19937_64 rng(7);
    const FusionConfig config =
        p == 0.0 ? DefaultFusion(program.graph, edges)
                 : RandomFusion(program.graph, edges, rng, p);
    const auto kernels = ApplyFusion(program.graph, edges, config);
    int total = 0;
    for (const auto& k : kernels) {
      EXPECT_FALSE(k.graph.Validate().has_value());
      for (const auto& n : k.graph.nodes()) {
        if (n.op != OpCode::kParameter && n.op != OpCode::kConstant &&
            n.op != OpCode::kIota) {
          ++total;
        }
      }
    }
    EXPECT_EQ(total, program_compute) << "fuse_prob=" << p;
  }
}

TEST(DefaultFusion, IsValidAndFusesSomething) {
  const ir::Program program = BuildProgram("ResNetV1", 0);
  const EdgeList edges = EdgeList::FromGraph(program.graph);
  const FusionConfig config = DefaultFusion(program.graph, edges);
  EXPECT_TRUE(DerivePartition(program.graph, edges, config).has_value());
  int fused = 0;
  for (const bool f : config.fuse_edge) fused += f ? 1 : 0;
  EXPECT_GT(fused, 0);
  // Default fusion reduces kernel count vs no fusion.
  FusionConfig none;
  none.fuse_edge.assign(config.fuse_edge.size(), false);
  EXPECT_LT(ApplyFusion(program.graph, edges, config).size(),
            ApplyFusion(program.graph, edges, none).size());
}

// Property: RandomFusion always yields a valid configuration, across seeds
// and fusion probabilities.
class RandomFusionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(RandomFusionPropertyTest, AlwaysValid) {
  const auto [seed, prob] = GetParam();
  const ir::Program program = BuildProgram("TransformerLM", 0);
  const EdgeList edges = EdgeList::FromGraph(program.graph);
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
  const FusionConfig config = RandomFusion(program.graph, edges, rng, prob);
  EXPECT_TRUE(DerivePartition(program.graph, edges, config).has_value());
  EXPECT_NO_THROW(ApplyFusion(program.graph, edges, config));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndProbs, RandomFusionPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 17, 99),
                       ::testing::Values(0.1, 0.5, 0.9)));

TEST(FlipOneEdge, ProducesValidNeighborsOrNothing) {
  const ir::Program program = BuildProgram("RNNLM", 0);
  const EdgeList edges = EdgeList::FromGraph(program.graph);
  std::mt19937_64 rng(5);
  FusionConfig config = DefaultFusion(program.graph, edges);
  int moved = 0;
  for (int i = 0; i < 50; ++i) {
    const auto next = FlipOneEdge(program.graph, edges, config, rng);
    if (!next.has_value()) continue;
    EXPECT_TRUE(DerivePartition(program.graph, edges, *next).has_value());
    // Exactly one decision differs.
    int diff = 0;
    for (size_t e = 0; e < config.fuse_edge.size(); ++e) {
      diff += config.fuse_edge[e] != next->fuse_edge[e] ? 1 : 0;
    }
    EXPECT_EQ(diff, 1);
    config = *next;
    ++moved;
  }
  EXPECT_GT(moved, 25);
}

TEST(FlipOneEdge, HandsBackTheDerivedPartition) {
  const ir::Program program = BuildProgram("RNNLM", 0);
  const EdgeList edges = EdgeList::FromGraph(program.graph);
  FusionConfig config = DefaultFusion(program.graph, edges);
  std::mt19937_64 rng(5);
  std::mt19937_64 rng_plain(5);
  for (int i = 0; i < 50; ++i) {
    std::vector<int> partition;
    const auto next =
        FlipOneEdge(program.graph, edges, config, rng, {}, &partition);
    // Asking for the partition draws nothing extra from the RNG.
    const auto plain = FlipOneEdge(program.graph, edges, config, rng_plain);
    ASSERT_EQ(next.has_value(), plain.has_value());
    if (!next.has_value()) continue;
    EXPECT_EQ(next->fuse_edge, plain->fuse_edge);
    EXPECT_EQ(partition, *DerivePartition(program.graph, edges, *next));
    config = *next;
  }
}

// A random FlipOneEdge walk, accepting every valid move: at each step the
// cache must hand back exactly ApplyFusion's kernels, in the same order.
TEST(FusionKernelCache, MatchesApplyFusionAlongAnnealingWalk) {
  const sim::TpuSimulator simulator(sim::TpuTarget::V2());
  const analytical::AnalyticalModel analytical(sim::TpuTarget::V2());
  for (const char* family : {"TransformerLM", "ResNetV1"}) {
    SCOPED_TRACE(family);
    const ir::Program program = BuildProgram(family, 0);
    const EdgeList edges = EdgeList::FromGraph(program.graph);
    FusionKernelCache cache(program.graph, simulator, analytical);
    FusionConfig config = DefaultFusion(program.graph, edges);
    std::mt19937_64 rng(23);
    int merges = 0, splits = 0;
    size_t produced = 0;
    for (int step = 0; step < 300; ++step) {
      std::vector<int> partition;
      const auto next =
          FlipOneEdge(program.graph, edges, config, rng, {}, &partition);
      if (!next.has_value()) continue;
      const bool merged = std::count(next->fuse_edge.begin(),
                                     next->fuse_edge.end(), true) >
                          std::count(config.fuse_edge.begin(),
                                     config.fuse_edge.end(), true);
      (merged ? merges : splits) += 1;
      config = *next;

      const auto expected = ApplyFusion(program.graph, edges, config);
      const auto cached = cache.Kernels(partition);
      ASSERT_EQ(cached.size(), expected.size()) << "step " << step;
      produced += expected.size();
      for (size_t k = 0; k < expected.size(); ++k) {
        const ir::Graph& want = expected[k].graph;
        const ir::Graph& got = cached[k]->kernel.graph;
        ASSERT_EQ(got.Fingerprint(), want.Fingerprint())
            << "step " << step << " kernel " << k;
        EXPECT_EQ(cached[k]->fingerprint, want.Fingerprint());
        EXPECT_EQ(got.StructuralSignature(), want.StructuralSignature());
        EXPECT_EQ(cached[k]->kernel.kind, expected[k].kind);
        ASSERT_EQ(got.num_nodes(), want.num_nodes());
        for (int n = 0; n < want.num_nodes(); ++n) {
          EXPECT_EQ(got.node(n).is_output, want.node(n).is_output);
        }
        EXPECT_EQ(cached[k]->tile,
                  CompilerDefaultTile(want, simulator, analytical));
      }
    }
    EXPECT_GT(merges, 0);
    EXPECT_GT(splits, 0);
    // Neighbouring configurations share most groups, so the cache holds far
    // fewer entries than the walk produced kernels.
    EXPECT_LT(cache.size(), produced / 10);
  }
}

TEST(FusionKernelCache, InlinedInputOnlyGroupsYieldNoKernel) {
  const ir::Program program = BuildProgram("RNNLM", 0);
  const EdgeList edges = EdgeList::FromGraph(program.graph);
  const auto partition = DerivePartition(
      program.graph, edges, DefaultFusion(program.graph, edges));
  ASSERT_TRUE(partition.has_value());
  const PartitionGroups groups = GroupPartition(program.graph, *partition);
  int inputs_only = 0, with_compute = 0;
  for (int g = 0; g < groups.num_groups(); ++g) {
    bool compute = false;
    for (const ir::NodeId id : groups.group(g)) {
      const OpCode op = program.graph.node(id).op;
      compute = compute || (op != OpCode::kParameter &&
                            op != OpCode::kConstant && op != OpCode::kIota);
    }
    const auto kernel =
        ExtractGroupKernel(program.graph, *partition, groups, g);
    EXPECT_EQ(kernel.has_value(), compute) << "group " << g;
    (compute ? with_compute : inputs_only) += 1;
  }
  EXPECT_GT(inputs_only, 0);
  const sim::TpuSimulator simulator(sim::TpuTarget::V2());
  const analytical::AnalyticalModel analytical(sim::TpuTarget::V2());
  FusionKernelCache cache(program.graph, simulator, analytical);
  EXPECT_EQ(static_cast<int>(cache.Kernels(*partition).size()), with_compute);
  EXPECT_EQ(static_cast<int>(cache.size()), groups.num_groups());
}

}  // namespace
}  // namespace tpuperf::data
