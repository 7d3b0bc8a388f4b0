#include "autotuner/fusion_tuner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

namespace tpuperf::tune {
namespace {

using KernelList = std::vector<const data::FusionKernelCache::Entry*>;

// Sum of the kernels' estimates, all scored in one batched call (the
// learned evaluator packs them into a single forward pass).
double SumConfigCost(const KernelList& kernels, CostEvaluator& evaluator) {
  std::vector<KernelTileRef> refs;
  refs.reserve(kernels.size());
  for (const data::FusionKernelCache::Entry* k : kernels) {
    refs.push_back({&k->kernel.graph, &k->tile, k->fingerprint});
  }
  const auto costs = evaluator.EstimateBatch(refs);
  double total = 0;
  for (const auto& cost : costs) {
    if (cost.has_value()) total += *cost;
    // Kernels the evaluator cannot score contribute nothing; only the
    // analytical evaluator on data-formatting kernels hits this (§7.3 notes
    // the analytical model is unusable as a fusion guide for this reason).
  }
  return total;
}

// True runtime of the kernels, measured on the simulator (no budget).
double TrueRuntime(const KernelList& kernels,
                   const sim::TpuSimulator& simulator) {
  double total = 0;
  for (const data::FusionKernelCache::Entry* k : kernels) {
    total += simulator.Measure(k->kernel.graph, k->tile);
  }
  return total;
}

// The kernels of a valid config, through the Tune's kernel cache.
KernelList KernelsOf(data::FusionKernelCache& cache, const ir::Program& program,
                     const data::EdgeList& edges,
                     const data::FusionConfig& config) {
  const auto partition = data::DerivePartition(program.graph, edges, config);
  if (!partition.has_value()) {
    throw std::invalid_argument("FusionAutotuner: invalid fusion configuration");
  }
  return cache.Kernels(*partition);
}

}  // namespace

double FusionAutotuner::ConfigCost(const ir::Program& program,
                                   const data::EdgeList& edges,
                                   const data::FusionConfig& config,
                                   CostEvaluator& evaluator) const {
  data::FusionKernelCache kernels(program.graph, simulator_, analytical_);
  return SumConfigCost(KernelsOf(kernels, program, edges, config),
                       evaluator);
}

// Each annealing step costs what the flip changed: FlipOneEdge hands back
// the partition it validated, the kernel cache maps its groups to kernels
// (extracting, fingerprinting and tiling only groups not seen before), and
// the evaluator scores the step's kernels in one batched call.
FusionTuneResult FusionAutotuner::TuneWithHardware(
    const ir::Program& program, const FusionTuneOptions& options) const {
  FusionTuneResult result;
  result.program = program.name;
  std::mt19937_64 rng(options.seed);
  data::FusionKernelCache kernels(program.graph, simulator_, analytical_);

  const data::EdgeList edges = data::EdgeList::FromGraph(program.graph);
  const data::FusionConfig default_config =
      data::DefaultFusion(program.graph, edges);
  result.default_runtime_sec = TrueRuntime(
      KernelsOf(kernels, program, edges, default_config), simulator_);

  data::FusionConfig current =
      options.start_from_default
          ? default_config
          : data::RandomFusion(program.graph, edges, rng, 0.5);

  HardwareEvaluator hardware(simulator_);
  double current_cost = SumConfigCost(
      KernelsOf(kernels, program, edges, current), hardware);
  data::FusionConfig best = current;
  double best_cost = current_cost;
  result.configs_explored = 1;

  double temperature = options.initial_temperature;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<int> partition;
  for (int step = 0; step < options.max_steps &&
                     hardware.SpentSeconds() < options.hardware_budget_sec;
       ++step) {
    const auto next =
        data::FlipOneEdge(program.graph, edges, current, rng, {}, &partition);
    temperature *= options.cooling;
    if (!next.has_value()) continue;
    const double next_cost =
        SumConfigCost(kernels.Kernels(partition), hardware);
    ++result.configs_explored;
    const double relative = (next_cost - current_cost) /
                            std::max(current_cost, 1e-12);
    if (next_cost <= current_cost ||
        unit(rng) < std::exp(-relative / std::max(temperature, 1e-6))) {
      current = *next;
      current_cost = next_cost;
      if (current_cost < best_cost) {
        best = current;
        best_cost = current_cost;
      }
    }
  }
  result.hardware_seconds = hardware.SpentSeconds();
  result.best_runtime_sec = TrueRuntime(
      KernelsOf(kernels, program, edges, best), simulator_);
  if (options.start_from_default) {
    // The compiler falls back to its default when search finds nothing
    // better; from a random start the search result stands on its own
    // (§7.3's random-start comparison).
    result.best_runtime_sec =
        std::min(result.best_runtime_sec, result.default_runtime_sec);
  }
  return result;
}

FusionTuneResult FusionAutotuner::TuneWithModel(
    const ir::Program& program, CostEvaluator& model,
    const FusionTuneOptions& options) const {
  FusionTuneResult result;
  result.program = program.name;
  std::mt19937_64 rng(options.seed);
  data::FusionKernelCache kernels(program.graph, simulator_, analytical_);

  const data::EdgeList edges = data::EdgeList::FromGraph(program.graph);
  const data::FusionConfig default_config =
      data::DefaultFusion(program.graph, edges);
  result.default_runtime_sec = TrueRuntime(
      KernelsOf(kernels, program, edges, default_config), simulator_);

  data::FusionConfig current =
      options.start_from_default
          ? default_config
          : data::RandomFusion(program.graph, edges, rng, 0.5);

  // ---- Phase 1: anneal on the cost model (CPU) ----------------------------
  const double model_start = model.SpentSeconds();
  double current_cost = SumConfigCost(
      KernelsOf(kernels, program, edges, current), model);
  // Best-first pool of distinct candidates, keyed by predicted cost.
  std::multimap<double, data::FusionConfig> pool;
  std::unordered_map<std::uint64_t, bool> pooled;
  const auto offer = [&](double cost, const data::FusionConfig& config) {
    if (!pooled.emplace(config.Fingerprint(), true).second) return;
    pool.emplace(cost, config);
    while (static_cast<int>(pool.size()) > options.validate_top) {
      pool.erase(std::prev(pool.end()));
    }
  };
  offer(current_cost, current);

  double temperature = options.initial_temperature;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<int> partition;
  for (int step = 0;
       step < options.max_steps &&
       model.SpentSeconds() - model_start < options.model_budget_sec;
       ++step) {
    const auto next =
        data::FlipOneEdge(program.graph, edges, current, rng, {}, &partition);
    temperature *= options.cooling;
    if (!next.has_value()) continue;
    const double next_cost = SumConfigCost(kernels.Kernels(partition), model);
    ++result.configs_explored;
    offer(next_cost, *next);
    const double relative = (next_cost - current_cost) /
                            std::max(current_cost, 1e-12);
    if (next_cost <= current_cost ||
        unit(rng) < std::exp(-relative / std::max(temperature, 1e-6))) {
      current = *next;
      current_cost = next_cost;
    }
  }

  // ---- Phase 2: validate promising configs on hardware, in ranked order ---
  HardwareEvaluator hardware(simulator_);
  double best_true = std::numeric_limits<double>::infinity();
  for (const auto& [predicted, config] : pool) {
    if (hardware.SpentSeconds() >= options.hardware_budget_sec) break;
    const double true_cost = SumConfigCost(
        KernelsOf(kernels, program, edges, config), hardware);
    best_true = std::min(best_true, true_cost);
  }
  if (options.start_from_default || !std::isfinite(best_true)) {
    best_true = std::min(best_true, result.default_runtime_sec);
  }
  result.hardware_seconds = hardware.SpentSeconds();
  result.best_runtime_sec = best_true;
  return result;
}

}  // namespace tpuperf::tune
