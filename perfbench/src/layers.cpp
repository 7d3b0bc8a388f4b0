// Layer probes of traced runs: each replays one layer's public calls on the
// workload's own inputs, so every per-layer metric has a value on every
// workload.

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "autotuner/evaluators.h"
#include "bench.h"
#include "core/evaluation.h"
#include "dataset/fusion.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/tape.h"
#include "serve/prediction_service.h"

namespace perfbench {

namespace ir = tpuperf::ir;
namespace td = tpuperf::data;
namespace tc = tpuperf::core;
namespace nn = tpuperf::nn;

// ---- sim, analytical, dataset, ir -----------------------------------------

LayerCosts MeasureLayerCosts(const World& world,
                             const std::vector<int>& programs,
                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  double measure = 0, enumerate = 0, select = 0, apply = 0, fp = 0, flip = 0;
  long n_measure = 0, n_enumerate = 0, n_apply = 0, n_fp = 0, n_flip = 0;
  double default_fusion = 0;
  for (const int pid : programs) {
    const ir::Graph& graph = world.corpus[static_cast<std::size_t>(pid)].graph;
    auto begin = Clock::now();
    const td::EdgeList edges = td::EdgeList::FromGraph(graph);
    volatile std::size_t fused =
        td::DefaultFusion(graph, edges).fuse_edge.size();
    (void)fused;
    default_fusion += SecondsSince(begin);
    for (int c = 0; c < 4; ++c) {
      const td::FusionConfig config = td::RandomFusion(graph, edges, rng, 0.5);
      auto start = Clock::now();
      (void)td::FlipOneEdge(graph, edges, config, rng);
      flip += SecondsSince(start);
      ++n_flip;
      start = Clock::now();
      const auto kernels = td::ApplyFusion(graph, edges, config);
      apply += SecondsSince(start);
      ++n_apply;
      for (const ir::Kernel& kernel : kernels) {
        start = Clock::now();
        volatile std::uint64_t sink = kernel.graph.Fingerprint();
        (void)sink;
        fp += SecondsSince(start);
        ++n_fp;
        start = Clock::now();
        const auto tiles = world.simulator.EnumerateTiles(kernel.graph, 256);
        enumerate += SecondsSince(start);
        ++n_enumerate;
        if (tiles.empty()) continue;
        start = Clock::now();
        const ir::TileConfig best =
            world.analytical.SelectBestTile(kernel.graph, tiles);
        select += SecondsSince(start);
        start = Clock::now();
        volatile double t = world.simulator.Measure(kernel.graph, best);
        (void)t;
        measure += SecondsSince(start);
        ++n_measure;
      }
    }
  }
  const auto per = [](double s, long n) { return n ? s / n * 1e6 : 0.0; };
  return {per(measure, n_measure),
          per(enumerate, n_enumerate),
          per(select, n_measure),
          per(apply, n_apply),
          per(fp, n_fp),
          per(flip, n_flip),
          per(default_fusion, static_cast<long>(programs.size()))};
}

void ReportLayerCosts(Run& run, const LayerCosts& c) {
  run.Layer("sim.measure_us", c.measure_us, "us");
  run.Layer("sim.enumerate_tiles_us", c.enumerate_us, "us");
  run.Layer("analytical.select_best_tile_us", c.select_best_us, "us");
  run.Layer("dataset.apply_fusion_us", c.apply_fusion_us, "us");
  run.Layer("dataset.flip_edge_us", c.flip_edge_us, "us");
  run.Layer("dataset.default_fusion_us", c.default_fusion_us, "us");
  run.Layer("ir.fingerprint_us", c.fingerprint_us, "us");
}

// ---- features, core, plan --------------------------------------------------

InferenceCosts ReplayInference(const tc::LearnedCostModel& model,
                               const InferenceWork& work) {
  InferenceCosts c;
  std::vector<tc::PreparedKernel> prepared;
  prepared.reserve(work.kernels.size());
  auto start = Clock::now();
  for (const ir::Graph* kernel : work.kernels) {
    prepared.push_back(model.Prepare(*kernel));
  }
  c.prepare_s = SecondsSince(start);
  c.kernels = static_cast<long>(work.kernels.size());

  // Each phase runs over all batches on its own, so the calls of one phase
  // do not evict the caches of another: interleaving plan replay with the
  // forward pass doubled the forward pass's time per item.
  const bool use_tiles = model.config().use_tile_features;
  const auto pack = [&](std::size_t b) {
    std::vector<tc::BatchItem> items;
    for (const auto& [kernel, tile] : work.batches[b]) {
      items.push_back({&prepared[kernel], use_tiles ? tile : nullptr});
    }
    return model.PrepareBatch(items);
  };

  // Pack and forward, as the evaluators run them.
  for (std::size_t b = 0; b < work.batches.size(); ++b) {
    start = Clock::now();
    const tc::PreparedBatch batch = pack(b);
    c.pack_s += SecondsSince(start);
    start = Clock::now();
    const std::vector<double> seconds = model.PredictBatchSeconds(batch);
    c.forward_s += SecondsSince(start);
    for (std::size_t i = 0;
         !work.expected_seconds.empty() && i < seconds.size(); ++i) {
      CheckSame(seconds[i], work.expected_seconds[b][i],
                "replayed batch differs from the evaluator's estimate");
    }
    c.items += static_cast<long>(work.batches[b].size());
    ++c.batches;
  }

  // Plan compile per serving bucket and plan replay, as the service runs
  // them.
  using Plan = std::shared_ptr<const tpuperf::plan::CompiledPlan>;
  std::map<std::pair<int, int>, Plan> plans;
  std::vector<std::vector<double>> replayed;
  for (std::size_t b = 0; b < work.batches.size(); ++b) {
    const tc::PreparedBatch batch = pack(b);
    const auto bucket = tpuperf::serve::PlanCache::Bucket(batch.num_kernels(),
                                                          batch.total_nodes());
    auto plan = plans.find(bucket);
    if (plan == plans.end()) {
      start = Clock::now();
      Plan compiled = model.CompilePlan(bucket.first, bucket.second);
      c.compile_s += SecondsSince(start);
      plan = plans.emplace(bucket, std::move(compiled)).first;
    }
    start = Clock::now();
    replayed.push_back(model.PredictBatchWithPlan(*plan->second, batch));
    c.replay_s += SecondsSince(start);
  }

  // Plan replay must equal PredictBatch (or the scores the workload got).
  for (std::size_t b = 0; b < work.batches.size(); ++b) {
    const std::vector<double> want = work.expected_scores.empty()
                                         ? model.PredictBatch(pack(b))
                                         : work.expected_scores[b];
    for (std::size_t i = 0; i < want.size(); ++i) {
      CheckSame(replayed[b][i], want[i], "plan replay differs from the scores");
    }
  }
  c.plans = static_cast<long>(plans.size());
  return c;
}

void ReportInference(Run& run, const InferenceCosts& c) {
  const auto items = static_cast<double>(c.items);
  run.Layer("features.prepare_us",
            c.prepare_s / static_cast<double>(c.kernels) * 1e6, "us");
  run.Layer("core.batch_items_mean",
            items / static_cast<double>(c.batches), "count");
  run.Layer("core.pack_us_per_item", c.pack_s / items * 1e6, "us");
  run.Layer("core.forward_us_per_item", c.forward_s / items * 1e6, "us");
  run.Layer("plan.compile_us",
            c.compile_s / static_cast<double>(c.plans) * 1e6, "us");
  run.Layer("plan.replay_us_per_item", c.replay_s / items * 1e6, "us");
}

InferenceWork TileTestWork(const World& world) {
  const std::set<int> test(world.split.test.begin(), world.split.test.end());
  const std::size_t max_batch = tpuperf::tune::LearnedEvaluator::kMaxBatch;
  InferenceWork work;
  for (const td::TileKernelData& k : world.tile.kernels) {
    if (!test.contains(k.record.program_id) || k.configs.empty()) continue;
    const std::size_t index = work.kernels.size();
    work.kernels.push_back(&k.record.kernel.graph);
    for (std::size_t b = 0; b < k.configs.size(); b += max_batch) {
      std::vector<InferenceWork::Item> batch;
      for (std::size_t c = b; c < std::min(k.configs.size(), b + max_batch);
           ++c) {
        batch.push_back({index, &k.configs[c]});
      }
      work.batches.push_back(std::move(batch));
    }
  }
  return work;
}

// ---- nn and the trainer ----------------------------------------------------

namespace {

constexpr int kReplaySteps = 40;
constexpr int kReplayWarmSteps = 5;

// One minibatch the way the trainers build them, cycling through the
// training families: a rank batch is configs_per_batch tiles of one kernel,
// an mse batch is kernels_per_batch kernels under their compiler-chosen
// tiles.
struct Minibatch {
  tc::PreparedBatch batch;
  std::vector<double> targets;
};

// Indices of the records of the training programs, grouped by family.
template <typename Records, typename RecordOf>
std::vector<std::vector<std::size_t>> TrainingFamilies(
    const World& world, const Records& records, RecordOf record_of) {
  const std::set<int> train(world.split.train.begin(), world.split.train.end());
  std::map<std::string, std::vector<std::size_t>> by_family;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const td::KernelRecord& r = record_of(records[i]);
    if (train.contains(r.program_id)) by_family[r.family].push_back(i);
  }
  std::vector<std::vector<std::size_t>> out;
  for (auto& [family, indices] : by_family) out.push_back(std::move(indices));
  return out;
}

std::vector<Minibatch> SampleMinibatches(const World& world,
                                         const Trained& trained, bool rank,
                                         std::mt19937_64& rng) {
  const tc::ModelConfig& cfg = trained.model->config();
  const auto families =
      rank ? TrainingFamilies(world, world.tile.kernels,
                              [](const auto& k) -> const auto& {
                                return k.record;
                              })
           : TrainingFamilies(world, world.fusion.samples,
                              [](const auto& s) -> const auto& {
                                return s.record;
                              });
  std::size_t next_family = 0;
  const auto draw = [&] {
    const auto& family = families[next_family++ % families.size()];
    return family[rng() % family.size()];
  };
  std::vector<Minibatch> out;
  while (static_cast<int>(out.size()) < kReplaySteps) {
    std::vector<tc::BatchItem> items;
    Minibatch m;
    if (rank) {
      const auto& k = world.tile.kernels[draw()];
      if (k.configs.size() < 2) continue;
      std::vector<std::size_t> chosen(k.configs.size());
      for (std::size_t i = 0; i < chosen.size(); ++i) chosen[i] = i;
      std::shuffle(chosen.begin(), chosen.end(), rng);
      chosen.resize(std::min<std::size_t>(
          chosen.size(), static_cast<std::size_t>(cfg.configs_per_batch)));
      const tc::PreparedKernel& pk =
          trained.cache->Get(k.record.kernel.graph, k.record.fingerprint);
      for (const std::size_t c : chosen) {
        items.push_back({&pk, &k.configs[c]});
        m.targets.push_back(k.runtimes[c]);
      }
    } else {
      for (int b = 0; b < cfg.kernels_per_batch; ++b) {
        const auto& s = world.fusion.samples[draw()];
        const tc::PreparedKernel& pk =
            trained.cache->Get(s.record.kernel.graph, s.record.fingerprint);
        items.push_back({&pk, cfg.use_tile_features ? &s.tile : nullptr});
        m.targets.push_back(s.runtime);
      }
    }
    m.batch = trained.model->PrepareBatch(items);
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

StepCosts ReplayTrainSteps(const World& world, Trained& trained,
                           std::mt19937_64& rng) {
  const tc::ModelConfig& cfg = trained.model->config();
  const bool rank = cfg.loss != tc::LossKind::kMse;
  const std::vector<Minibatch> batches =
      SampleMinibatches(world, trained, rank, rng);
  nn::AdamConfig adam_config;
  adam_config.learning_rate = cfg.learning_rate;
  adam_config.lr_decay = cfg.lr_decay;
  adam_config.clip = cfg.grad_clip;
  adam_config.clip_norm = cfg.grad_clip_norm;
  nn::Adam adam(adam_config);
  nn::TapeArena arena;
  nn::Tape tape(/*grad_enabled=*/true, &arena);
  const auto params = trained.model->params().params();

  StepCosts c;
  c.task = rank ? "rank" : "mse";
  double forward = 0, backward = 0, step = 0;
  int timed = 0;
  for (int i = 0; i < kReplaySteps; ++i) {
    if (i == kReplayWarmSteps) arena.ResetStats();
    const Minibatch& m = batches[static_cast<std::size_t>(i)];
    tape.Clear();
    auto start = Clock::now();
    nn::Tensor out = trained.model->ForwardBatch(tape, m.batch, true);
    nn::Tensor loss =
        rank ? nn::PairwiseRankLoss(tape, out, m.targets,
                                    cfg.loss == tc::LossKind::kRankLogistic
                                        ? nn::RankSurrogate::kLogistic
                                        : nn::RankSurrogate::kHinge)
             : nn::MseLogLoss(tape, out, m.targets);
    const double f = SecondsSince(start);
    start = Clock::now();
    tape.Backward(loss);
    const double b = SecondsSince(start);
    start = Clock::now();
    adam.Step(params);
    const double a = SecondsSince(start);
    Check(std::isfinite(loss.scalar()),
          c.task + " replayed loss is not finite");
    if (i >= kReplayWarmSteps) {
      forward += f;
      backward += b;
      step += a;
      ++timed;
    }
  }
  const double per = 1e3 / timed;
  c.forward_ms = forward * per;
  c.backward_ms = backward * per;
  c.adam_ms = step * per;
  c.heap_allocs = static_cast<double>(arena.heap_allocations()) / timed;
  c.trainer_ms = trained.stats.wall_seconds * 1e3 /
                 static_cast<double>(trained.stats.steps);
  return c;
}

void ReportTrainSteps(Run& run, const std::vector<StepCosts>& tasks) {
  double forward = 0, backward = 0, adam = 0, allocs = 0, trainer = 0;
  for (const StepCosts& c : tasks) {
    forward += c.forward_ms;
    backward += c.backward_ms;
    adam += c.adam_ms;
    allocs += c.heap_allocs;
    trainer += c.trainer_ms;
    const double replayed = c.forward_ms + c.backward_ms + c.adam_ms;
    run.Attribute("core." + c.task + ".step_residual_ms",
                  c.trainer_ms - replayed);
    run.Attribute("coverage.core." + c.task + ".step",
                  replayed / c.trainer_ms);
  }
  const auto n = static_cast<double>(tasks.size());
  run.Layer("nn.forward_ms", forward / n, "ms");
  run.Layer("nn.backward_ms", backward / n, "ms");
  run.Layer("nn.adam_ms", adam / n, "ms");
  run.Layer("nn.tape_heap_allocs", allocs / n, "count");
  run.Layer("coverage.core.step", (forward + backward + adam) / trainer,
            "ratio");
}

// ---- eval ------------------------------------------------------------------

Evaluation EvaluateTile(Run& run, const World& world,
                        const tc::LearnedCostModel& model,
                        tc::PreparedCache& cache) {
  Evaluation e;
  const auto start = Clock::now();
  {
    Scope span(run.tracer, "eval.tile", 0);
    for (const auto& r :
         tc::EvaluateTileTask(world.tile, world.split.test, world.corpus,
                              tc::MakeLearnedTileScorer(model, cache))) {
      e.values.push_back(r.mean_kendall);
    }
  }
  e.seconds = SecondsSince(start);
  Check(!e.values.empty(), "tile evaluation produced no groups");
  return e;
}

Evaluation EvaluateFusion(Run& run, const World& world,
                          const tc::LearnedCostModel& model,
                          tc::PreparedCache& cache) {
  Evaluation e;
  const auto start = Clock::now();
  {
    Scope span(run.tracer, "eval.fusion", 0);
    for (const auto& r : tc::EvaluateFusionTask(
             world.fusion, world.split.test, world.corpus,
             tc::MakeLearnedFusionEstimator(model, cache))) {
      e.values.push_back(r.mape);
    }
  }
  e.seconds = SecondsSince(start);
  Check(!e.values.empty(), "fusion evaluation produced no groups");
  return e;
}

void ReportEvaluations(Run& run, const std::vector<Evaluation>& evaluations) {
  double seconds = 0;
  std::size_t groups = 0;
  for (const Evaluation& e : evaluations) {
    seconds += e.seconds;
    groups += e.values.size();
  }
  run.Layer("eval.evaluate_ms", seconds * 1e3, "ms");
  run.Layer("eval.groups", static_cast<double>(groups), "count");
}

}  // namespace perfbench
