// The metric set of the benchmark, as BENCHMARK.json declares it.
#pragma once

namespace perfbench {

// The metrics every workload reports, in BENCHMARK.json's order. Each
// workload gives them its own meaning (README.md); a run that misses one
// fails instead of printing a result.
inline constexpr const char* kEndToEndMetrics[] = {
    "setup_s", "peak_rss_mb", "throughput_per_s", "latency_ms_p50",
    "quality"};
inline constexpr const char* kLayerMetrics[] = {
    "dataset.corpus_s",
    "dataset.build_s",
    "core.train_s",
    "trace.overhead_ratio",
    "features.featurize_calls",
    "features.prepare_us",
    "core.prepared_kernels",
    "core.batch_items_mean",
    "core.pack_us_per_item",
    "core.forward_us_per_item",
    "plan.compile_us",
    "plan.replay_us_per_item",
    "sim.measure_us",
    "sim.enumerate_tiles_us",
    "analytical.select_best_tile_us",
    "dataset.apply_fusion_us",
    "dataset.flip_edge_us",
    "dataset.default_fusion_us",
    "ir.fingerprint_us",
    "nn.forward_ms",
    "nn.backward_ms",
    "nn.adam_ms",
    "nn.tape_heap_allocs",
    "coverage.core.step",
    "eval.evaluate_ms",
    "eval.groups",
};

}  // namespace perfbench
