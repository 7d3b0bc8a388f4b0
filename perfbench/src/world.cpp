#include <cstdio>

#include "bench.h"
#include "dataset/families.h"

namespace perfbench {

namespace td = tpuperf::data;
namespace tc = tpuperf::core;

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::unique_ptr<World> BuildWorld(Run& run, DatasetNeeds needs) {
  auto world = std::make_unique<World>();
  {
    Scope span(run.tracer, "dataset.corpus", 0);
    world->corpus = td::GenerateCorpus();
    world->split = td::RandomSplit(world->corpus, /*seed=*/1234);
  }
  // The budgets the paper-table benches use at REPRO_SCALE=1.
  td::DatasetOptions options;
  options.max_tile_configs_per_kernel = 32;
  options.fusion_configs_per_program = 10;
  Scope span(run.tracer, "dataset.build", 0);
  if (needs.tile) {
    world->tile =
        td::BuildTileDataset(world->corpus, world->simulator, options);
  }
  if (needs.fusion) {
    world->fusion = td::BuildFusionDataset(world->corpus, world->simulator,
                                           world->analytical, options);
  }
  return world;
}

Trained TrainTileModel(const World& world, int steps,
                       std::uint64_t model_seed) {
  tc::ModelConfig config = tc::ModelConfig::TileTaskDefault();
  config.train_steps = steps;
  config.seed = model_seed;
  Trained out;
  out.model = std::make_unique<tc::LearnedCostModel>(config);
  out.cache = std::make_unique<tc::PreparedCache>(*out.model);
  out.stats =
      tc::TrainTileTask(*out.model, world.tile, world.split.train, *out.cache);
  return out;
}

Trained TrainFusionModel(const World& world, int steps,
                         std::uint64_t model_seed) {
  tc::ModelConfig config = tc::ModelConfig::FusionTaskDefault();
  config.train_steps = steps;
  config.seed = model_seed;
  Trained out;
  out.model = std::make_unique<tc::LearnedCostModel>(config);
  out.cache = std::make_unique<tc::PreparedCache>(*out.model);
  out.stats = tc::TrainFusionTask(*out.model, world.fusion, world.split.train,
                                  *out.cache);
  return out;
}

void ReportSetupLayers(Run& run) {
  if (!run.options.trace) return;
  const auto totals = run.tracer.Aggregate();
  const auto seconds = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.seconds;
  };
  run.Layer("dataset.corpus_s", seconds("dataset.corpus"), "s");
  run.Layer("dataset.build_s", seconds("dataset.build"), "s");
  run.Layer("core.train_s",
            seconds("core.setup_train") + seconds("core.train_rank") +
                seconds("core.train_mse"),
            "s");
}

void ReportOverhead(Run& run, double untraced_rate, double traced_rate) {
  run.Layer("trace.overhead_ratio", untraced_rate / traced_rate, "ratio");
}

}  // namespace perfbench
