// perfbench: the repository benchmark.
//
//   perfbench --workload <tile_tune|fusion_tune|train|serve> --seed <n>
//             --seconds <s> --trace <0|1> [--source <id>] [--trace-out <path>]
//
// Prints a report line (host, widths, spans) and, last, the result line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// A failed correctness check exits 1 without printing a result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "core/thread_pool.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tile_tune|fusion_tune|train|serve> --seed <n> --seconds <s> "
               "--trace <0|1> [--source <id>] [--trace-out <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string source = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return Usage("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--source") {
      source = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");

  void (*workload)(Run&) = nullptr;
  if (options.workload == "tile_tune") workload = RunTileTune;
  if (options.workload == "fusion_tune") workload = RunFusionTune;
  if (options.workload == "train") workload = RunTrain;
  if (options.workload == "serve") workload = RunServe;
  if (workload == nullptr) return Usage("unknown --workload");

  Run run(options);
  try {
    workload(run);
  } catch (const CheckFailed& e) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  run.EndToEnd("peak_rss_mb",
               run.peak_rss_mb > 0 ? run.peak_rss_mb : PeakRssMb(), "MB");

  run.result.Report(
      "host", HostJson(source, tpuperf::core::ThreadPool::Global().size(),
                       run.service_workers));
  run.result.Report("workload", JsonString(options.workload));
  run.result.Report("seed", std::to_string(options.seed));
  run.result.Report("seconds", JsonNumber(options.seconds));
  run.result.Report("trace", options.trace ? "1" : "0");
  if (options.trace) {
    std::string spans = "{";
    for (const auto& [name, t] : run.tracer.Aggregate()) {
      spans += (spans.size() > 1 ? ", " : "") + JsonString(name) +
               ": {\"seconds\": " + JsonNumber(t.seconds) +
               ", \"self_seconds\": " + JsonNumber(t.self_seconds) +
               ", \"count\": " + std::to_string(t.count) + "}";
    }
    run.result.Report("spans", spans + "}");
    if (!options.trace_path.empty() &&
        !run.tracer.WriteChromeTrace(options.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.trace_path.c_str());
      return 1;
    }
  }
  if (!run.attribution.empty()) {
    std::string attribution = "{";
    for (const auto& [name, value] : run.attribution) {
      attribution += (attribution.size() > 1 ? ", " : "") + JsonString(name) +
                     ": " + JsonNumber(value);
    }
    run.result.Report("attribution", attribution + "}");
  }
  // Every run reports the whole metric set of its mode, each a finite
  // number; an end-to-end metric is also never 0.
  const auto check_metrics = [&](const auto& names, bool end_to_end) {
    for (const char* name : names) {
      const Metric* m = run.result.Find(name);
      if (m == nullptr || !std::isfinite(m->value) ||
          (end_to_end && m->value == 0)) {
        std::fprintf(stderr, "perfbench: metric %s is missing or invalid\n",
                     name);
        return false;
      }
    }
    return run.result.size() == std::size(names);
  };
  if (!(options.trace ? check_metrics(kLayerMetrics, false)
                      : check_metrics(kEndToEndMetrics, true))) {
    std::fprintf(stderr, "perfbench: the run's metrics differ from the set "
                         "BENCHMARK.json declares\n");
    return 1;
  }
  run.result.Print(/*correct=*/true, run.attempted, run.failed);
  return 0;
}
