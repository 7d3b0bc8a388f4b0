// Workload train: both trainers for a fixed step count, then held-out
// evaluation. Closed loop, pool width 1.
//
// The only workload that runs the backward pass, Adam and the tape arena:
// writes next to the other workloads' reads, so a GEMM or parallelism change
// tuned for inference shapes that slows training shows here. It bypasses
// serve, plan and sim.

#include <cmath>
#include <random>
#include <string>

#include "bench.h"
#include "core/thread_pool.h"
#include "features/featurizer.h"

namespace perfbench {
namespace {

namespace tc = tpuperf::core;

constexpr int kTrainSteps = 1000;

// One round: both trainers from scratch, then held-out evaluation of both
// models, as a user retraining the cost models would run it.
struct Round {
  double steps_per_s = 0;  // both trainers' steps per second of training
  double seconds = 0;      // wall time of the whole round
  Trained rank;
  Trained mse;
  Evaluation tile;    // Kendall tau per test application
  Evaluation fusion;  // MAPE per test application
};

void CheckLosses(const tc::TrainStats& stats, const char* task) {
  Check(std::isfinite(stats.first_loss) && std::isfinite(stats.final_loss),
        std::string(task) + " loss is not finite");
  Check(stats.final_loss < stats.first_loss,
        std::string(task) + " final loss is not below the first");
}

Round TrainRound(Run& run, const World& world, std::uint64_t model_seed,
                 std::uint64_t group) {
  Round r;
  const auto start = Clock::now();
  {
    Scope span(run.tracer, "core.train_rank", group);
    r.rank = TrainTileModel(world, kTrainSteps, model_seed);
  }
  {
    Scope span(run.tracer, "core.train_mse", group);
    r.mse = TrainFusionModel(world, kTrainSteps, model_seed);
  }
  r.tile = EvaluateTile(run, world, *r.rank.model, *r.rank.cache);
  r.fusion = EvaluateFusion(run, world, *r.mse.model, *r.mse.cache);
  r.seconds = SecondsSince(start);
  CheckLosses(r.rank.stats, "rank");
  CheckLosses(r.mse.stats, "mse");
  r.steps_per_s = 2.0 * kTrainSteps /
                  (r.rank.stats.wall_seconds + r.mse.stats.wall_seconds);
  return r;
}

}  // namespace

void RunTrain(Run& run) {
  tc::ThreadPool::SetNumThreads(kClosedLoopPoolWidth);
  const std::unique_ptr<World> world = RepeatSetup(run, [&] {
    return BuildWorld(run, {.tile = true, .fusion = true});
  });

  // Round 0 trains from the reference model seed, so the quality metrics
  // are properties of the code; later rounds take their model seed
  // (initialization and minibatch order) from --seed. Each round's models
  // are freed before the next round trains.
  const auto start = Clock::now();
  std::vector<double> rates, round_ms, rank_rates, mse_rates;
  const auto note = [&](const Round& r) {
    rates.push_back(r.steps_per_s);
    round_ms.push_back(r.seconds * 1e3);
    rank_rates.push_back(kTrainSteps / r.rank.stats.wall_seconds);
    mse_rates.push_back(kTrainSteps / r.mse.stats.wall_seconds);
  };
  Round reference;
  long featurized = 0;
  if (run.options.trace) {
    // Overhead baseline: the reference round untraced, then traced.
    run.tracer.set_armed(false);
    const Round untraced = TrainRound(run, *world, kReferenceModelSeed, 0);
    run.tracer.set_armed(true);
    featurized = tpuperf::feat::FeaturizeKernelInvocations();
    reference = TrainRound(run, *world, kReferenceModelSeed, 0);
    featurized = tpuperf::feat::FeaturizeKernelInvocations() - featurized;
    ReportOverhead(run, untraced.steps_per_s, reference.steps_per_s);
  } else {
    reference = TrainRound(run, *world, kReferenceModelSeed, 0);
  }
  note(reference);
  const double tau = Median(reference.tile.values);
  const double mape = Median(reference.fusion.values);

  // The peak after the reference round: the seeded rounds repeat the same
  // work, and their allocator history made the run's final peak vary by 8%
  // with the seed.
  run.peak_rss_mb = PeakRssMb();
  if (!run.options.trace) {
    reference = Round{};
    // Every later round repeats one seeded round: a clean repetition of the
    // same work, however many rounds the host's speed allows.
    const std::uint64_t seeded = Mix(run.options.seed, 1);
    for (std::uint64_t index = 1; SecondsSince(start) < run.options.seconds;
         ++index) {
      note(TrainRound(run, *world, seeded, index));
    }
  }
  run.attempted += static_cast<long>(2 * rates.size());

  run.EndToEnd("throughput_per_s", Median(rates), "1/s");
  run.EndToEnd("latency_ms_p50", Median(round_ms), "ms");
  run.EndToEnd("quality", tau, "score");
  run.result.Report("rounds", std::to_string(rates.size()));
  run.result.Report("rank_steps_per_s", JsonNumber(Median(rank_rates)));
  run.result.Report("mse_steps_per_s", JsonNumber(Median(mse_rates)));
  run.result.Report("tile_tau", JsonNumber(tau));
  run.result.Report("fusion_mape", JsonNumber(mape));

  if (run.options.trace) {
    ReportSetupLayers(run);
    run.Layer("features.featurize_calls", static_cast<double>(featurized),
              "count");
    run.Layer("core.prepared_kernels",
              static_cast<double>(reference.rank.cache->size() +
                                  reference.mse.cache->size()),
              "count");
    // Inference as the tile evaluation runs it: the rank model over the
    // test programs' kernels and their measured tiles.
    ReportInference(run,
                    ReplayInference(*reference.rank.model, TileTestWork(*world)));
    ReportLayerCosts(run, MeasureLayerCosts(*world, world->split.test,
                                            Mix(run.options.seed, 3)));
    ReportEvaluations(run, {reference.tile, reference.fusion});
    run.Attribute("eval.tile_groups",
                  static_cast<double>(reference.tile.values.size()));
    run.Attribute("eval.fusion_groups",
                  static_cast<double>(reference.fusion.values.size()));
    std::mt19937_64 rng(Mix(run.options.seed, 7));
    ReportTrainSteps(run, {ReplayTrainSteps(*world, reference.rank, rng),
                           ReplayTrainSteps(*world, reference.mse, rng)});
  }
}

}  // namespace perfbench
