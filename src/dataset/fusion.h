// Operator fusion: configurations, validity, extraction, and the compiler's
// default heuristic (paper §2.2, §2.3).
//
// Before fusion, a program graph's nodes are primitive tensor operations.
// A fusion configuration decides, for every dataflow edge between
// computation nodes, whether producer and consumer execute in the same
// kernel. Contracting the fused edges partitions the graph into kernels;
// a configuration is valid when the resulting kernel-level graph is acyclic
// (otherwise no execution order exists) and no kernel exceeds the group
// size bound. The autotuner searches this space (up to 2^40000
// configurations per program in the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <unordered_map>
#include <vector>

#include "ir/graph.h"
#include "ir/program.h"
#include "ir/tile.h"

namespace tpuperf::analytical {
class AnalyticalModel;
}  // namespace tpuperf::analytical
namespace tpuperf::sim {
class TpuSimulator;
}  // namespace tpuperf::sim

namespace tpuperf::data {

// Canonical indexing of the fusible edges of a graph. Edges from
// parameter/constant/iota producers are excluded: pure inputs are always
// inlined into their consumer kernel and carry no fusion decision.
struct EdgeList {
  struct Edge {
    ir::NodeId producer = ir::kInvalidNode;
    ir::NodeId consumer = ir::kInvalidNode;
  };
  std::vector<Edge> edges;

  static EdgeList FromGraph(const ir::Graph& graph);
  int size() const noexcept { return static_cast<int>(edges.size()); }
};

// One fusion decision per EdgeList edge.
struct FusionConfig {
  std::vector<bool> fuse_edge;

  std::uint64_t Fingerprint() const;
};

struct FusionLimits {
  // Maximum computation nodes per fused kernel (mirrors XLA's fusion node
  // limits; also keeps simulated kernels within the size range of §4).
  int max_group_nodes = 48;
};

// Derives the node -> group id partition induced by `config`. Returns
// nullopt when the contracted group graph is cyclic or a group exceeds
// `limits.max_group_nodes`.
std::optional<std::vector<int>> DerivePartition(const ir::Graph& graph,
                                                const EdgeList& edges,
                                                const FusionConfig& config,
                                                const FusionLimits& limits = {});

// The members of every group of a partition and which node values leave
// their group, gathered in one linear pass: everything kernel extraction
// reads from the partition.
struct PartitionGroups {
  // Group g's nodes, in id (= topological) order, are
  // members[offsets[g] .. offsets[g + 1]).
  std::vector<int> offsets;
  std::vector<ir::NodeId> members;
  // Per node: its value is used by another group or leaves the program.
  std::vector<bool> crosses;

  int num_groups() const noexcept {
    return static_cast<int>(offsets.size()) - 1;
  }
  std::span<const ir::NodeId> group(int g) const {
    const auto i = static_cast<size_t>(g);
    return {members.data() + offsets[i], members.data() + offsets[i + 1]};
  }
};
PartitionGroups GroupPartition(const ir::Graph& graph,
                               const std::vector<int>& group_of);

// Materializes group `g` as a kernel. Cross-group values become parameters
// of the consumer kernel and outputs of the producer kernel;
// parameter/constant nodes are inlined (duplicated) into every consuming
// kernel. A group containing only inlined inputs produces no kernel. The
// kernel depends only on the group's member ids.
std::optional<ir::Kernel> ExtractGroupKernel(const ir::Graph& graph,
                                             const std::vector<int>& group_of,
                                             const PartitionGroups& groups,
                                             int g);

// Materializes the kernels of every group, in group order.
std::vector<ir::Kernel> ExtractKernels(const ir::Graph& graph,
                                       const std::vector<int>& group_of);

// Convenience: partition + extraction; throws std::invalid_argument on an
// invalid configuration.
std::vector<ir::Kernel> ApplyFusion(const ir::Graph& graph,
                                    const EdgeList& edges,
                                    const FusionConfig& config,
                                    const FusionLimits& limits = {});

// The compiler's default fusion heuristic (§2.3): greedily fuse
// producer->consumer edges that save memory traffic — elementwise /
// data-movement / reduction producers with a single consumer, and
// dot/convolution outputs into elementwise epilogues — as long as the
// configuration stays valid.
FusionConfig DefaultFusion(const ir::Graph& graph, const EdgeList& edges,
                           const FusionLimits& limits = {});

// A random valid configuration: iid Bernoulli(fuse_prob) decisions,
// repaired by unfusing until valid. Used by the random-search dataset
// generation of §4.
FusionConfig RandomFusion(const ir::Graph& graph, const EdgeList& edges,
                          std::mt19937_64& rng, double fuse_prob,
                          const FusionLimits& limits = {});

// Simulated-annealing neighbourhood move: flip one random edge decision.
// Returns nullopt if the flipped configuration is invalid. When `partition`
// is given, a valid flip also stores the flipped configuration's
// DerivePartition result there.
std::optional<FusionConfig> FlipOneEdge(const ir::Graph& graph,
                                        const EdgeList& edges,
                                        const FusionConfig& config,
                                        std::mt19937_64& rng,
                                        const FusionLimits& limits = {},
                                        std::vector<int>* partition = nullptr);

// The compiler-chosen tile for a kernel: analytical-model best among the
// enumerated candidates (what XLA does by default, §2.3).
ir::TileConfig CompilerDefaultTile(const ir::Graph& kernel,
                                   const sim::TpuSimulator& simulator,
                                   const analytical::AnalyticalModel& analytical,
                                   int max_enumerated_tiles = 256);

// The kernels of many partitions of one program graph, each extracted,
// fingerprinted and given its compiler-default tile once. Annealing visits
// configurations that differ by one edge, so consecutive partitions share
// all but a group or two; a lookup costs one linear grouping pass plus a
// hash probe per group. Entries are keyed exactly (not by hash) on the
// group's member ids. They determine the kernel: a member's `crosses` flag
// is set iff it has a user outside the group or is a program output. The
// cache only grows: one entry per distinct group seen.
class FusionKernelCache {
 public:
  struct Entry {
    ir::Kernel kernel;
    std::uint64_t fingerprint = 0;  // kernel.graph.Fingerprint()
    ir::TileConfig tile;            // CompilerDefaultTile(kernel.graph, ...)
  };

  // `graph`, `simulator` and `analytical` must outlive the cache.
  FusionKernelCache(const ir::Graph& graph, const sim::TpuSimulator& simulator,
                    const analytical::AnalyticalModel& analytical)
      : graph_(graph), simulator_(simulator), analytical_(analytical) {}

  // The kernels of a DerivePartition result, in ExtractKernels order. The
  // pointers stay valid for the cache's lifetime.
  std::vector<const Entry*> Kernels(const std::vector<int>& group_of);

  // Distinct groups extracted so far (groups without a kernel included).
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct KeyHash {
    std::size_t operator()(const std::vector<ir::NodeId>& key) const noexcept;
  };

  const ir::Graph& graph_;
  const sim::TpuSimulator& simulator_;
  const analytical::AnalyticalModel& analytical_;
  // Keyed by the group's member ids in id order. A group without a kernel
  // maps to nullopt.
  std::unordered_map<std::vector<ir::NodeId>, std::optional<Entry>, KeyHash>
      entries_;
  std::vector<ir::NodeId> key_;  // lookup scratch
};

}  // namespace tpuperf::data
