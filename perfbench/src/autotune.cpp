// Workloads tile_tune and fusion_tune: the two autotuners driven by the
// learned model, closed loop, one caller, pool width 1.
//
// tile_tune spends most of its time in LearnedEvaluator::EstimateBatch on
// 64-item batches of one kernel x many tiles. fusion_tune uses the same
// inference layer with many small, memo-heavy batches over first-seen
// kernels, and most of its time goes to fusion, fingerprinting,
// featurization and tile choice. A change that helps big batches but taxes
// small or new shapes shows on fusion_tune and not on tile_tune.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "autotuner/fusion_tuner.h"
#include "autotuner/tile_tuner.h"
#include "bench.h"
#include "core/thread_pool.h"
#include "dataset/fusion.h"
#include "features/featurizer.h"
#include "sim/hash.h"

namespace perfbench {
namespace {

namespace ir = tpuperf::ir;
namespace td = tpuperf::data;
namespace tc = tpuperf::core;
namespace tt = tpuperf::tune;

constexpr int kTopK = 10;                           // 'Learned model 10'

std::uint64_t ItemKey(std::uint64_t fingerprint, const ir::TileConfig& tile) {
  std::uint64_t h = fingerprint;
  for (const auto d : tile.dims) {
    h = tpuperf::sim::HashCombine(h, static_cast<std::uint64_t>(d));
  }
  return h;
}

// The EstimateBatch calls of one traced pass, with copies of their kernels
// (the tuners' kernels die with each Tune call), for replay.
struct Capture {
  struct Call {
    std::uint64_t group = 0;            // the program being tuned
    std::vector<int> kernel;            // index into `kernels`
    std::vector<ir::TileConfig> tiles;  // per item
    std::vector<double> results;        // per item, as the evaluator said
  };
  std::vector<ir::Graph> kernels;
  std::vector<std::uint64_t> fingerprints;
  std::unordered_map<std::uint64_t, int> kernel_of;
  std::vector<Call> calls;

  void Record(std::span<const tt::KernelTileRef> items,
              const std::vector<std::optional<double>>& results,
              std::uint64_t group) {
    Call call;
    call.group = group;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::uint64_t fp = items[i].kernel->Fingerprint();
      auto [it, added] =
          kernel_of.emplace(fp, static_cast<int>(kernels.size()));
      if (added) {
        kernels.push_back(*items[i].kernel);
        fingerprints.push_back(fp);
      }
      call.kernel.push_back(it->second);
      call.tiles.push_back(*items[i].tile);
      call.results.push_back(results[i].value_or(std::nan("")));
    }
    calls.push_back(std::move(call));
  }
};

// The learned evaluator of one program's tuning, counting calls and items.
// When the tracer is armed it records an autotuner.estimate span per call
// and, given a capture, copies the call's inputs and results.
class ObservedEvaluator : public tt::CostEvaluator {
 public:
  ObservedEvaluator(const tc::LearnedCostModel& model,
                    tc::PreparedCache& cache, Tracer& tracer,
                    Capture* capture, std::uint64_t group)
      : inner_(model, cache),
        tracer_(tracer),
        capture_(capture),
        group_(group) {}

  std::optional<double> EstimateKernel(const ir::Graph& kernel,
                                       const ir::TileConfig& tile) override {
    return inner_.EstimateKernel(kernel, tile);
  }
  std::vector<std::optional<double>> EstimateBatch(
      std::span<const tt::KernelTileRef> items) override {
    ++calls;
    this->items += static_cast<long>(items.size());
    std::vector<std::optional<double>> out;
    {
      Scope span(tracer_, "autotuner.estimate", group_);
      out = inner_.EstimateBatch(items);
    }
    if (capture_ != nullptr && tracer_.armed()) {
      // A span of its own keeps the copying out of the tuner's self time.
      Scope span(tracer_, "trace.capture", group_);
      capture_->Record(items, out, group_);
    }
    return out;
  }
  double SpentSeconds() const override { return inner_.SpentSeconds(); }
  std::string_view name() const override { return "observed"; }

  long calls = 0;
  long items = 0;

 private:
  tt::LearnedEvaluator inner_;
  Tracer& tracer_;
  Capture* capture_;
  std::uint64_t group_;  // span group: the program being tuned
};

// What one pass over the workload's tuning jobs produced.
struct Pass {
  double tune_seconds = 0;   // wall time inside Tune calls
  long items = 0;            // (kernel, tile) candidates estimated
  long configs = 0;          // fusion configs explored
  long estimate_calls = 0;
  std::vector<double> program_ms;  // per job, in job order
  std::vector<double> speedups;  // per job, in job order (not run order)
  double hw_seconds = 0;
  long featurize_calls = 0;
  std::size_t prepared_kernels = 0;
};

double Geomean(const std::vector<double>& values) {
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// Runs passes until `seconds` have elapsed (at least one) and appends them.
template <typename PassFn>
void RunPasses(double seconds, std::vector<Pass>& passes, PassFn&& pass) {
  const auto start = Clock::now();
  do {
    passes.push_back(pass());
  } while (SecondsSince(start) < seconds);
}

// Median over passes of the pass's count per second of Tune time: a pass
// that a host stall slowed does not move it.
double Rate(const std::vector<Pass>& passes, long Pass::*count) {
  std::vector<double> rates;
  for (const Pass& p : passes) {
    rates.push_back(static_cast<double>(p.*count) / p.tune_seconds);
  }
  return Median(rates);
}

// Checks shared by both tuners: every tuned result is no slower than its
// default, and every pass over the same jobs found the same results.
void CheckPasses(const std::vector<Pass>& passes) {
  for (const Pass& p : passes) {
    for (const double s : p.speedups) {
      Check(s >= 1.0, "a tuned program is slower than its default");
    }
  }
  for (std::size_t i = 1; i < passes.size(); ++i) {
    Check(passes[i].speedups == passes[0].speedups,
          "two passes over the same jobs tuned differently");
  }
}

// latency_ms_p50: the median over the tuned programs of each program's
// median time across passes, so one slow pass does not reorder programs.
// The tail goes to the report line.
void ReportEndToEnd(Run& run, const std::vector<Pass>& passes) {
  std::vector<double> ms;
  for (std::size_t job = 0; job < passes.front().program_ms.size(); ++job) {
    std::vector<double> samples;
    for (const Pass& p : passes) samples.push_back(p.program_ms[job]);
    ms.push_back(Median(samples));
  }
  run.EndToEnd("latency_ms_p50", Percentile(ms, 0.5), "ms");
  const double tail = TailQuantile(ms.size());
  run.result.Report("program_ms",
                    "{\"programs\": " + std::to_string(ms.size()) +
                        ", \"p90_ms\": " + JsonNumber(Percentile(ms, 0.9)) +
                        ", \"tail_quantile\": " + JsonNumber(tail) +
                        ", \"tail_ms\": " +
                        JsonNumber(Percentile(ms, tail)) + "}");
  run.result.Report("passes", std::to_string(passes.size()));
}

// Exactness check on a seeded sample: EstimateBatch through a fresh learned
// evaluator equals LearnedCostModel::PredictSeconds on the same inputs.
void CheckEstimateSample(const tc::LearnedCostModel& model,
                         std::span<const tt::KernelTileRef> refs,
                         std::mt19937_64& rng) {
  tc::PreparedCache cache(model);
  tt::LearnedEvaluator learned(model, cache);
  const auto batch = learned.EstimateBatch(refs);
  const bool use_tiles = model.config().use_tile_features;
  std::uniform_int_distribution<std::size_t> pick(0, refs.size() - 1);
  for (int s = 0; s < 16; ++s) {
    const std::size_t i = pick(rng);
    const tc::PreparedKernel pk = model.Prepare(*refs[i].kernel);
    const double single =
        model.PredictSeconds(pk, use_tiles ? refs[i].tile : nullptr);
    Check(batch[i].has_value(), "EstimateBatch left an item unscored");
    CheckSame(*batch[i], single, "EstimateBatch differs from PredictSeconds");
  }
}

// ---- Replays (traced runs) -------------------------------------------------

// The captured calls as inference work, batched the way each program's
// LearnedEvaluator served them: memo hits within the program are skipped,
// misses are packed kMaxBatch at a time. The replay must reproduce the
// captured estimates exactly.
struct CapturedWork {
  InferenceWork work;
  long items = 0;     // all items of the captured calls
  long distinct = 0;  // distinct (kernel, tile) keys, per program
};

CapturedWork CapturedInference(const Capture& capture) {
  CapturedWork out;
  for (const ir::Graph& kernel : capture.kernels) {
    out.work.kernels.push_back(&kernel);
  }
  std::unordered_set<std::uint64_t> memo;
  std::uint64_t group = capture.calls.empty() ? 0 : capture.calls[0].group;
  for (const Capture::Call& call : capture.calls) {
    if (call.group != group) {
      out.distinct += static_cast<long>(memo.size());
      memo.clear();
      group = call.group;
    }
    out.items += static_cast<long>(call.kernel.size());
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < call.kernel.size(); ++i) {
      const auto k = static_cast<std::size_t>(call.kernel[i]);
      if (memo.insert(ItemKey(capture.fingerprints[k], call.tiles[i])).second) {
        pending.push_back(i);
      }
    }
    const std::size_t max_batch = tt::LearnedEvaluator::kMaxBatch;
    for (std::size_t b = 0; b < pending.size(); b += max_batch) {
      std::vector<InferenceWork::Item> batch;
      std::vector<double> expected;
      for (std::size_t p = b; p < std::min(pending.size(), b + max_batch);
           ++p) {
        const std::size_t i = pending[p];
        batch.push_back(
            {static_cast<std::size_t>(call.kernel[i]), &call.tiles[i]});
        expected.push_back(call.results[i]);
      }
      out.work.batches.push_back(std::move(batch));
      out.work.expected_seconds.push_back(std::move(expected));
    }
  }
  out.distinct += static_cast<long>(memo.size());
  return out;
}

// Per-layer metrics of both tuners, and the autotuner's own figures as
// attribution. `traced` are the traced passes, the first of which was
// captured; `self_replayed_s` is the modeled replay of the tuner's own
// (non-estimate) work in that first pass. Ends with the training-step replay,
// which updates the model.
void ReportTunerLayers(Run& run, const World& world, Trained& trained,
                       bool fusion, const std::vector<Pass>& traced,
                       const Capture& capture, const LayerCosts& costs,
                       double first_estimate_s, double first_self_s,
                       double self_replayed_s) {
  const auto totals = run.tracer.Aggregate();
  const double n = static_cast<double>(traced.size());
  const Pass& first = traced.front();
  run.Attribute("autotuner.estimate_s",
                totals.at("autotuner.estimate").seconds / n);
  run.Attribute("autotuner.self_s",
                totals.at("autotuner.tune").self_seconds / n);
  run.Attribute("autotuner.estimate_calls",
                static_cast<double>(first.estimate_calls));
  run.Attribute("autotuner.estimate_items", static_cast<double>(first.items));
  run.Attribute("autotuner.hw_seconds", first.hw_seconds);

  const CapturedWork captured = CapturedInference(capture);
  const InferenceCosts r = ReplayInference(*trained.model, captured.work);
  run.Attribute("autotuner.distinct_item_ratio",
                static_cast<double>(captured.distinct) /
                    static_cast<double>(captured.items));
  run.Layer("features.featurize_calls",
            static_cast<double>(first.featurize_calls), "count");
  run.Layer("core.prepared_kernels",
            static_cast<double>(first.prepared_kernels), "count");
  ReportInference(run, r);
  ReportLayerCosts(run, costs);
  run.Attribute("coverage.autotuner.estimate",
                (r.prepare_s + r.pack_s + r.forward_s) / first_estimate_s);
  run.Attribute("coverage.autotuner.self", self_replayed_s / first_self_s);

  ReportEvaluations(
      run, {fusion ? EvaluateFusion(run, world, *trained.model,
                                    *trained.cache)
                   : EvaluateTile(run, world, *trained.model,
                                  *trained.cache)});
  std::mt19937_64 rng(Mix(run.options.seed, 7));
  ReportTrainSteps(run, {ReplayTrainSteps(world, trained, rng)});
}

struct TunerSetup {
  std::unique_ptr<World> world;
  Trained trained;
};

TunerSetup SetUpTuner(Run& run, bool fusion) {
  return RepeatSetup(run, [&] {
    TunerSetup s;
    s.world = BuildWorld(run, {.tile = !fusion, .fusion = fusion});
    Scope span(run.tracer, "core.setup_train", 0);
    s.trained = fusion ? TrainFusionModel(*s.world, kSetupTrainSteps,
                                          kReferenceModelSeed)
                       : TrainTileModel(*s.world, kSetupTrainSteps,
                                        kReferenceModelSeed);
    return s;
  });
}

// Runs the measured phase: untraced passes for the whole run, or, when
// traced, untraced passes for half of it (the overhead baseline) and traced
// passes for the other half, the first of them captured. Returns the passes
// that count for the run's metrics.
template <typename PassFn>
std::vector<Pass> MeasurePasses(Run& run, Capture& capture,
                                std::pair<double, double>& first_split,
                                long Pass::*rate_count, PassFn&& pass) {
  std::vector<Pass> passes;
  if (!run.options.trace) {
    RunPasses(run.options.seconds, passes, [&] { return pass(nullptr); });
    return passes;
  }
  run.tracer.set_armed(false);
  std::vector<Pass> untraced;
  RunPasses(run.options.seconds / 2, untraced, [&] { return pass(nullptr); });
  run.tracer.set_armed(true);
  passes.push_back(pass(&capture));
  {
    const auto totals = run.tracer.Aggregate();
    first_split = {totals.at("autotuner.estimate").seconds,
                   totals.at("autotuner.tune").self_seconds};
  }
  RunPasses(run.options.seconds / 2 - passes.front().tune_seconds, passes,
            [&] { return pass(nullptr); });
  ReportOverhead(run, Rate(untraced, rate_count), Rate(passes, rate_count));
  return passes;
}

}  // namespace

// ---- tile_tune -------------------------------------------------------------

void RunTileTune(Run& run) {
  tc::ThreadPool::SetNumThreads(kClosedLoopPoolWidth);
  TunerSetup setup = SetUpTuner(run, /*fusion=*/false);
  const World& world = *setup.world;
  const tc::LearnedCostModel& model = *setup.trained.model;
  const tt::TileSizeAutotuner tuner(world.simulator, world.analytical);

  // Every corpus program, in a seeded order. Each pass gets a fresh
  // PreparedCache, so first-seen kernels are featurized inside the run, and
  // each program a fresh LearnedEvaluator, as one compiler invocation would:
  // its time then does not depend on which programs ran before it.
  std::vector<int> order(world.corpus.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(Mix(run.options.seed, 1));
  std::shuffle(order.begin(), order.end(), rng);

  const auto pass = [&](Capture* capture) {
    Pass p;
    p.speedups.assign(world.corpus.size(), 0.0);
    p.program_ms.assign(world.corpus.size(), 0.0);
    tc::PreparedCache cache(model);
    const long featurized = tpuperf::feat::FeaturizeKernelInvocations();
    for (const int pid : order) {
      const auto group = static_cast<std::uint64_t>(pid);
      ObservedEvaluator observed(model, cache, run.tracer, capture, group);
      const auto start = Clock::now();
      tt::TileTuneResult r;
      {
        Scope span(run.tracer, "autotuner.tune", group);
        r = tuner.Tune(world.corpus[static_cast<std::size_t>(pid)],
                       tt::TileTuneMode::kTopK, &observed, kTopK);
      }
      const double seconds = SecondsSince(start);
      p.tune_seconds += seconds;
      p.program_ms[static_cast<std::size_t>(pid)] = seconds * 1e3;
      p.speedups[static_cast<std::size_t>(pid)] = r.Speedup();
      p.hw_seconds += r.hardware_seconds;
      p.items += observed.items;
      p.estimate_calls += observed.calls;
    }
    p.featurize_calls =
        tpuperf::feat::FeaturizeKernelInvocations() - featurized;
    p.prepared_kernels = cache.size();
    return p;
  };

  Capture capture;
  std::pair<double, double> first_split;
  const std::vector<Pass> passes =
      MeasurePasses(run, capture, first_split, &Pass::items, pass);
  run.attempted += static_cast<long>(passes.size() * world.corpus.size());

  // ---- Checks --------------------------------------------------------------
  CheckPasses(passes);
  {
    std::mt19937_64 check_rng(Mix(run.options.seed, 2));
    std::uniform_int_distribution<std::size_t> pick(0,
                                                    world.corpus.size() - 1);
    for (int s = 0; s < 3; ++s) {
      const ir::Graph& graph = world.corpus[pick(check_rng)].graph;
      const td::EdgeList edges = td::EdgeList::FromGraph(graph);
      const auto kernels =
          td::ApplyFusion(graph, edges, td::DefaultFusion(graph, edges));
      const ir::Kernel& kernel =
          kernels[std::uniform_int_distribution<std::size_t>(
              0, kernels.size() - 1)(check_rng)];
      const auto tiles = world.simulator.EnumerateTiles(kernel.graph, 256);
      if (tiles.empty()) continue;
      std::vector<tt::KernelTileRef> refs;
      for (const ir::TileConfig& tile : tiles) {
        refs.push_back({&kernel.graph, &tile});
      }
      CheckEstimateSample(model, refs, check_rng);
    }
  }

  // ---- Metrics -------------------------------------------------------------
  run.EndToEnd("throughput_per_s", Rate(passes, &Pass::items), "1/s");
  ReportEndToEnd(run, passes);
  run.EndToEnd("quality", Geomean(passes.front().speedups), "score");
  if (run.options.trace) {
    ReportSetupLayers(run);
    // The tuner's own work per kernel: enumerate, pick the default, measure
    // it and verify the top k, with a fingerprint per measurement; per
    // program: default fusion and applying it.
    const LayerCosts costs =
        MeasureLayerCosts(world, order, Mix(run.options.seed, 3));
    long kernels = 0;
    for (const Capture::Call& call : capture.calls) {
      kernels += call.kernel.empty() ? 0 : 1;
    }
    const double per_kernel_us = costs.enumerate_us + costs.select_best_us +
                                 (1 + kTopK) * costs.measure_us +
                                 (1 + kTopK) * costs.fingerprint_us;
    const double self_replayed =
        (static_cast<double>(kernels) * per_kernel_us +
         static_cast<double>(world.corpus.size()) *
             (costs.default_fusion_us + costs.apply_fusion_us)) *
        1e-6;
    ReportTunerLayers(run, world, setup.trained, /*fusion=*/false, passes,
                      capture, costs, first_split.first, first_split.second,
                      self_replayed);
  }
}

// ---- fusion_tune -----------------------------------------------------------

void RunFusionTune(Run& run) {
  tc::ThreadPool::SetNumThreads(kClosedLoopPoolWidth);
  TunerSetup setup = SetUpTuner(run, /*fusion=*/true);
  const World& world = *setup.world;
  const tc::LearnedCostModel& model = *setup.trained.model;
  const tt::FusionAutotuner tuner(world.simulator, world.analytical);

  // The Fig. 5 programs plus the held-out test programs.
  std::vector<int> programs;
  for (const char* name : {"transformer_lm_v1", "char2feats_v0", "nmt_v3",
                           "convdraw_v2", "ranking_v1", "resnet_v1_v2"}) {
    for (std::size_t i = 0; i < world.corpus.size(); ++i) {
      if (world.corpus[i].name == name) programs.push_back(static_cast<int>(i));
    }
  }
  programs.insert(programs.end(), world.split.test.begin(),
                  world.split.test.end());

  // Each program anneals from a fixed seed, so the work of a pass, and
  // its quality, do not depend on --seed; the seed orders the
  // programs, which decides which kernels each tuning featurizes first.
  // Every pass gets a fresh PreparedCache, every program a fresh
  // LearnedEvaluator.
  std::vector<int> order(programs.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(Mix(run.options.seed, 1));
  std::shuffle(order.begin(), order.end(), rng);
  const auto pass = [&](Capture* capture) {
    Pass p;
    p.speedups.assign(programs.size(), 0.0);
    p.program_ms.assign(programs.size(), 0.0);
    tc::PreparedCache cache(model);
    const long featurized = tpuperf::feat::FeaturizeKernelInvocations();
    for (const int job : order) {
      const int pid = programs[static_cast<std::size_t>(job)];
      tt::FusionTuneOptions options;
      options.seed = static_cast<std::uint64_t>(1000 + pid);
      const auto group = static_cast<std::uint64_t>(pid);
      ObservedEvaluator observed(model, cache, run.tracer, capture, group);
      const auto start = Clock::now();
      tt::FusionTuneResult r;
      {
        Scope span(run.tracer, "autotuner.tune", group);
        r = tuner.TuneWithModel(world.corpus[static_cast<std::size_t>(pid)],
                                observed, options);
      }
      const double seconds = SecondsSince(start);
      p.tune_seconds += seconds;
      p.program_ms[static_cast<std::size_t>(job)] = seconds * 1e3;
      p.speedups[static_cast<std::size_t>(job)] = r.Speedup();
      p.configs += r.configs_explored;
      p.hw_seconds += r.hardware_seconds;
      p.items += observed.items;
      p.estimate_calls += observed.calls;
    }
    p.featurize_calls =
        tpuperf::feat::FeaturizeKernelInvocations() - featurized;
    p.prepared_kernels = cache.size();
    return p;
  };

  Capture capture;
  std::pair<double, double> first_split;
  const std::vector<Pass> passes =
      MeasurePasses(run, capture, first_split, &Pass::configs, pass);
  run.attempted += static_cast<long>(passes.size() * programs.size());

  // ---- Checks --------------------------------------------------------------
  CheckPasses(passes);
  {
    std::mt19937_64 check_rng(Mix(run.options.seed, 2));
    for (int s = 0; s < 3; ++s) {
      const ir::Graph& graph =
          world.corpus[static_cast<std::size_t>(
                           programs[check_rng() % programs.size()])]
              .graph;
      const td::EdgeList edges = td::EdgeList::FromGraph(graph);
      const auto kernels = td::ApplyFusion(
          graph, edges, td::RandomFusion(graph, edges, check_rng, 0.5));
      std::vector<ir::TileConfig> tiles;
      for (const ir::Kernel& k : kernels) {
        tiles.push_back(td::CompilerDefaultTile(k.graph, world.simulator,
                                                world.analytical));
      }
      std::vector<tt::KernelTileRef> refs;
      for (std::size_t i = 0; i < kernels.size(); ++i) {
        refs.push_back({&kernels[i].graph, &tiles[i]});
      }
      CheckEstimateSample(model, refs, check_rng);
    }
  }

  // ---- Metrics -------------------------------------------------------------
  run.EndToEnd("throughput_per_s", Rate(passes, &Pass::configs), "1/s");
  ReportEndToEnd(run, passes);
  run.EndToEnd("quality", Geomean(passes.front().speedups), "score");
  if (run.options.trace) {
    ReportSetupLayers(run);
    const LayerCosts costs =
        MeasureLayerCosts(world, programs, Mix(run.options.seed, 3));
    // Modeled replay of the annealer's own work in the first traced pass:
    // one edge flip per step, fusion and fingerprints per explored config,
    // and enumerate + select per first-seen kernel; validation measures
    // each kernel of the validated configs.
    const Pass& first = passes.front();
    const double items_per_call = static_cast<double>(first.items) /
                                  static_cast<double>(first.estimate_calls);
    const double steps = static_cast<double>(programs.size()) *
                         tt::FusionTuneOptions{}.max_steps;
    const double validated = static_cast<double>(programs.size()) *
                             (tt::FusionTuneOptions{}.validate_top + 1);
    const double self_replayed =
        (steps * costs.flip_edge_us +
         static_cast<double>(programs.size()) * costs.default_fusion_us +
         static_cast<double>(first.estimate_calls) *
             (costs.apply_fusion_us + items_per_call * costs.fingerprint_us) +
         static_cast<double>(capture.kernels.size()) *
             (costs.enumerate_us + costs.select_best_us) +
         validated * (costs.apply_fusion_us +
                      items_per_call * (costs.fingerprint_us +
                                        costs.enumerate_us +
                                        costs.select_best_us +
                                        costs.measure_us))) *
        1e-6;
    ReportTunerLayers(run, world, setup.trained, /*fusion=*/true, passes,
                      capture, costs, first_split.first, first_split.second,
                      self_replayed);
  }
}

}  // namespace perfbench
