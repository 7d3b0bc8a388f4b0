#include "dataset/fusion.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

#include "analytical/analytical_model.h"
#include "sim/hash.h"
#include "sim/simulator.h"

namespace tpuperf::data {
namespace {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpCode;

bool IsInlinedInput(OpCode op) {
  return op == OpCode::kParameter || op == OpCode::kConstant ||
         op == OpCode::kIota;
}

// Union-find over node ids.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }
  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[static_cast<size_t>(a)] = b;
  }

 private:
  std::vector<int> parent_;
};

}  // namespace

EdgeList EdgeList::FromGraph(const Graph& graph) {
  EdgeList list;
  for (const Node& n : graph.nodes()) {
    for (const NodeId operand : n.operands) {
      if (IsInlinedInput(graph.node(operand).op)) continue;
      list.edges.push_back(Edge{operand, n.id});
    }
  }
  return list;
}

std::uint64_t FusionConfig::Fingerprint() const {
  std::uint64_t h = 0xfeedc0ffee123457ull;
  for (size_t i = 0; i < fuse_edge.size(); ++i) {
    if (fuse_edge[i]) h = sim::HashCombine(h, static_cast<std::uint64_t>(i));
  }
  return h;
}

std::optional<std::vector<int>> DerivePartition(const Graph& graph,
                                                const EdgeList& edges,
                                                const FusionConfig& config,
                                                const FusionLimits& limits) {
  if (config.fuse_edge.size() != edges.edges.size()) {
    throw std::invalid_argument("DerivePartition: config/edge size mismatch");
  }
  const int n = graph.num_nodes();
  UnionFind uf(n);
  for (size_t e = 0; e < edges.edges.size(); ++e) {
    if (config.fuse_edge[e]) {
      uf.Union(edges.edges[e].producer, edges.edges[e].consumer);
    }
  }

  // Compact group ids, numbered in order of each group's first node.
  std::vector<int> group_of(static_cast<size_t>(n));
  std::vector<int> group_of_root(static_cast<size_t>(n), -1);
  int num_groups = 0;
  for (int i = 0; i < n; ++i) {
    int& g = group_of_root[static_cast<size_t>(uf.Find(i))];
    if (g < 0) g = num_groups++;
    group_of[static_cast<size_t>(i)] = g;
  }

  // Group size bound (computation nodes only).
  std::vector<int> group_size(static_cast<size_t>(num_groups), 0);
  for (const Node& node : graph.nodes()) {
    if (IsInlinedInput(node.op)) continue;
    if (++group_size[static_cast<size_t>(
            group_of[static_cast<size_t>(node.id)])] >
        limits.max_group_nodes) {
      return std::nullopt;
    }
  }

  // Acyclicity of the condensed group graph (Kahn's algorithm) over flat
  // successor arrays: group g's successors are succ[succ_begin[g] ..
  // succ_begin[g + 1]).
  std::vector<int> succ_begin(static_cast<size_t>(num_groups) + 1, 0);
  std::vector<int> indegree(static_cast<size_t>(num_groups), 0);
  for (const Node& node : graph.nodes()) {
    const int g_to = group_of[static_cast<size_t>(node.id)];
    for (const NodeId operand : node.operands) {
      const int g_from = group_of[static_cast<size_t>(operand)];
      if (g_from == g_to) continue;
      ++succ_begin[static_cast<size_t>(g_from) + 1];
      ++indegree[static_cast<size_t>(g_to)];
    }
  }
  std::partial_sum(succ_begin.begin(), succ_begin.end(), succ_begin.begin());
  std::vector<int> succ(static_cast<size_t>(succ_begin.back()));
  {
    std::vector<int> fill(succ_begin.begin(), succ_begin.end() - 1);
    for (const Node& node : graph.nodes()) {
      const int g_to = group_of[static_cast<size_t>(node.id)];
      for (const NodeId operand : node.operands) {
        const int g_from = group_of[static_cast<size_t>(operand)];
        if (g_from == g_to) continue;
        succ[static_cast<size_t>(fill[static_cast<size_t>(g_from)]++)] = g_to;
      }
    }
  }
  // Every group enters the worklist once, so it never outgrows num_groups.
  std::vector<int> ready;
  ready.reserve(static_cast<size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) {
    if (indegree[static_cast<size_t>(g)] == 0) ready.push_back(g);
  }
  for (size_t head = 0; head < ready.size(); ++head) {
    const int g = ready[head];
    for (int s = succ_begin[static_cast<size_t>(g)];
         s < succ_begin[static_cast<size_t>(g) + 1]; ++s) {
      const int to = succ[static_cast<size_t>(s)];
      if (--indegree[static_cast<size_t>(to)] == 0) ready.push_back(to);
    }
  }
  if (static_cast<int>(ready.size()) != num_groups) return std::nullopt;
  return group_of;
}

PartitionGroups GroupPartition(const Graph& graph,
                               const std::vector<int>& group_of) {
  PartitionGroups groups;
  const int num_groups =
      group_of.empty() ? 0
                       : 1 + *std::max_element(group_of.begin(), group_of.end());

  // Members by counting sort: a stable pass in id order keeps each group's
  // members in id (= topological) order.
  groups.offsets.assign(static_cast<size_t>(num_groups) + 1, 0);
  for (const int g : group_of) ++groups.offsets[static_cast<size_t>(g) + 1];
  std::partial_sum(groups.offsets.begin(), groups.offsets.end(),
                   groups.offsets.begin());
  groups.members.resize(group_of.size());
  std::vector<int> fill(groups.offsets.begin(), groups.offsets.end() - 1);
  for (size_t id = 0; id < group_of.size(); ++id) {
    const auto g = static_cast<size_t>(group_of[id]);
    groups.members[static_cast<size_t>(fill[g]++)] = static_cast<NodeId>(id);
  }

  // Which nodes' values cross group boundaries or leave the program?
  groups.crosses.assign(static_cast<size_t>(graph.num_nodes()), false);
  std::vector<bool> has_user(static_cast<size_t>(graph.num_nodes()), false);
  for (const Node& node : graph.nodes()) {
    for (const NodeId operand : node.operands) {
      has_user[static_cast<size_t>(operand)] = true;
      if (group_of[static_cast<size_t>(operand)] !=
          group_of[static_cast<size_t>(node.id)]) {
        groups.crosses[static_cast<size_t>(operand)] = true;
      }
    }
  }
  for (const Node& node : graph.nodes()) {
    if (!has_user[static_cast<size_t>(node.id)] || node.is_output) {
      groups.crosses[static_cast<size_t>(node.id)] = true;  // program output
    }
  }
  return groups;
}

std::optional<ir::Kernel> ExtractGroupKernel(const Graph& graph,
                                             const std::vector<int>& group_of,
                                             const PartitionGroups& groups,
                                             int g) {
  const std::span<const NodeId> members = groups.group(g);
  if (std::all_of(members.begin(), members.end(), [&](NodeId id) {
        return IsInlinedInput(graph.node(id).op);
      })) {
    return std::nullopt;  // inlined-inputs-only group: no kernel
  }

  Graph kgraph;
  std::map<NodeId, NodeId> local_id;  // program node -> kernel node

  // Maps a producer value from outside the group into this kernel as a
  // parameter node.
  const auto import_value = [&](NodeId program_id) -> NodeId {
    const auto it = local_id.find(program_id);
    if (it != local_id.end()) return it->second;
    Node param;
    param.op = OpCode::kParameter;
    param.shape = graph.node(program_id).shape;
    const NodeId local = kgraph.AddNode(std::move(param));
    local_id.emplace(program_id, local);
    return local;
  };

  for (const NodeId id : members) {
    const Node& node = graph.node(id);
    if (IsInlinedInput(node.op)) {
      // Materialized lazily by import_value when used.
      continue;
    }
    Node copy = node;
    copy.operands.clear();
    for (const NodeId operand : node.operands) {
      const Node& producer = graph.node(operand);
      if (group_of[static_cast<size_t>(operand)] == g &&
          !IsInlinedInput(producer.op)) {
        copy.operands.push_back(local_id.at(operand));
      } else if (IsInlinedInput(producer.op)) {
        // Inlined inputs keep their original opcode so the featurizer
        // sees parameter vs constant distinctions.
        const auto it = local_id.find(operand);
        if (it != local_id.end()) {
          copy.operands.push_back(it->second);
        } else {
          Node inlined;
          inlined.op = producer.op;
          inlined.shape = producer.shape;
          const NodeId local = kgraph.AddNode(std::move(inlined));
          local_id.emplace(operand, local);
          copy.operands.push_back(local);
        }
      } else {
        copy.operands.push_back(import_value(operand));
      }
    }
    copy.is_output = groups.crosses[static_cast<size_t>(id)];
    const NodeId local = kgraph.AddNode(std::move(copy));
    local_id.emplace(id, local);
  }

  ir::Kernel kernel;
  kernel.kind = ir::Kernel::Classify(kgraph);
  kernel.graph = std::move(kgraph);
  return kernel;
}

std::vector<ir::Kernel> ExtractKernels(const Graph& graph,
                                       const std::vector<int>& group_of) {
  const PartitionGroups groups = GroupPartition(graph, group_of);
  std::vector<ir::Kernel> kernels;
  for (int g = 0; g < groups.num_groups(); ++g) {
    auto kernel = ExtractGroupKernel(graph, group_of, groups, g);
    if (kernel.has_value()) kernels.push_back(std::move(*kernel));
  }
  return kernels;
}

std::vector<ir::Kernel> ApplyFusion(const Graph& graph, const EdgeList& edges,
                                    const FusionConfig& config,
                                    const FusionLimits& limits) {
  const auto partition = DerivePartition(graph, edges, config, limits);
  if (!partition.has_value()) {
    throw std::invalid_argument("ApplyFusion: invalid fusion configuration");
  }
  return ExtractKernels(graph, *partition);
}

FusionConfig DefaultFusion(const Graph& graph, const EdgeList& edges,
                           const FusionLimits& limits) {
  FusionConfig config;
  config.fuse_edge.assign(edges.edges.size(), false);

  // Single-consumer producers can fuse without duplication.
  std::vector<int> user_count(static_cast<size_t>(graph.num_nodes()), 0);
  for (const Node& node : graph.nodes()) {
    for (const NodeId operand : node.operands) {
      ++user_count[static_cast<size_t>(operand)];
    }
  }

  for (size_t e = 0; e < edges.edges.size(); ++e) {
    const auto& edge = edges.edges[e];
    const Node& producer = graph.node(edge.producer);
    const Node& consumer = graph.node(edge.consumer);
    const bool producer_cheap = ir::IsElementwise(producer.op) ||
                                ir::IsDataMovement(producer.op) ||
                                producer.op == OpCode::kReduce ||
                                producer.op == OpCode::kBatchNormInference;
    const bool epilogue_fusion =
        ir::UsesMatrixUnit(producer.op) &&
        (ir::IsElementwise(consumer.op) ||
         consumer.op == OpCode::kBatchNormInference ||
         consumer.op == OpCode::kReduce);
    const bool single_user = user_count[static_cast<size_t>(edge.producer)] == 1;
    if (!single_user) continue;
    if (!producer_cheap && !epilogue_fusion) continue;

    config.fuse_edge[e] = true;
    if (!DerivePartition(graph, edges, config, limits).has_value()) {
      config.fuse_edge[e] = false;  // would create a cycle or oversize group
    }
  }
  return config;
}

FusionConfig RandomFusion(const Graph& graph, const EdgeList& edges,
                          std::mt19937_64& rng, double fuse_prob,
                          const FusionLimits& limits) {
  FusionConfig config;
  config.fuse_edge.assign(edges.edges.size(), false);
  std::bernoulli_distribution fuse(fuse_prob);
  for (size_t e = 0; e < edges.edges.size(); ++e) {
    config.fuse_edge[e] = fuse(rng);
  }
  // Repair: unfuse random fused edges until the configuration is valid.
  std::vector<size_t> fused;
  for (size_t e = 0; e < edges.edges.size(); ++e) {
    if (config.fuse_edge[e]) fused.push_back(e);
  }
  std::shuffle(fused.begin(), fused.end(), rng);
  while (!DerivePartition(graph, edges, config, limits).has_value()) {
    if (fused.empty()) break;  // all-unfused is always valid
    config.fuse_edge[fused.back()] = false;
    fused.pop_back();
  }
  return config;
}

std::optional<FusionConfig> FlipOneEdge(const Graph& graph,
                                        const EdgeList& edges,
                                        const FusionConfig& config,
                                        std::mt19937_64& rng,
                                        const FusionLimits& limits,
                                        std::vector<int>* partition) {
  if (edges.edges.empty()) return std::nullopt;
  FusionConfig next = config;
  std::uniform_int_distribution<size_t> pick(0, edges.edges.size() - 1);
  const size_t e = pick(rng);
  next.fuse_edge[e] = !next.fuse_edge[e];
  auto derived = DerivePartition(graph, edges, next, limits);
  if (!derived.has_value()) return std::nullopt;
  if (partition != nullptr) *partition = std::move(*derived);
  return next;
}

ir::TileConfig CompilerDefaultTile(const Graph& kernel,
                                   const sim::TpuSimulator& simulator,
                                   const analytical::AnalyticalModel& analytical,
                                   int max_enumerated_tiles) {
  const auto candidates = simulator.EnumerateTiles(kernel, max_enumerated_tiles);
  if (candidates.empty()) return simulator.DefaultTile(kernel);
  return analytical.SelectBestTile(kernel, candidates);
}

std::size_t FusionKernelCache::KeyHash::operator()(
    const std::vector<ir::NodeId>& key) const noexcept {
  std::uint64_t h = key.size();
  for (const ir::NodeId v : key) {
    h = sim::HashCombine(h, static_cast<std::uint64_t>(v));
  }
  return static_cast<std::size_t>(h);
}

std::vector<const FusionKernelCache::Entry*> FusionKernelCache::Kernels(
    const std::vector<int>& group_of) {
  const PartitionGroups groups = GroupPartition(graph_, group_of);
  std::vector<const Entry*> kernels;
  kernels.reserve(static_cast<size_t>(groups.num_groups()));
  for (int g = 0; g < groups.num_groups(); ++g) {
    const std::span<const NodeId> members = groups.group(g);
    key_.assign(members.begin(), members.end());
    auto it = entries_.find(key_);
    if (it == entries_.end()) {
      std::optional<Entry> entry;
      if (auto kernel = ExtractGroupKernel(graph_, group_of, groups, g)) {
        entry.emplace();
        entry->kernel = std::move(*kernel);
        entry->fingerprint = entry->kernel.graph.Fingerprint();
        entry->tile = CompilerDefaultTile(entry->kernel.graph, simulator_,
                                          analytical_);
      }
      it = entries_.emplace(key_, std::move(entry)).first;
    }
    if (it->second.has_value()) kernels.push_back(&*it->second);
  }
  return kernels;
}

}  // namespace tpuperf::data
