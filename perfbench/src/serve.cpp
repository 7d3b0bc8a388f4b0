// Workload serve: serve::PredictionService (1 service worker, library pool
// width 1) under closed-loop bursts of one full batch, which give the gated
// latency and throughput, and under open-loop seeded Poisson arrivals at
// fixed absolute rates, which are reported.
//
// The only workload that goes through the batcher, the plan cache and plan
// replay, and the concurrent PreparedCache. Requests are (kernel, tile)
// pairs of the corpus's fused kernels with seeded Zipf(1) popularity. Rates
// are fixed numbers, not a share of a capacity measured on the code under
// test, so two commits get the same load.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "bench.h"
#include "core/thread_pool.h"
#include "features/featurizer.h"
#include "serve/prediction_service.h"

namespace perfbench {
namespace {

namespace ir = tpuperf::ir;
namespace tc = tpuperf::core;
namespace ts = tpuperf::serve;

constexpr double kReferenceRate = 5000;
// Doubling rungs: a 15k rung sat on the capacity edge of a 4-vCPU host and
// flipped between runs.
constexpr double kLadder[] = {5000, 10000, 20000};
constexpr double kZipfExponent = 1.0;
constexpr double kWarmupSeconds = 1.0;
constexpr std::uint64_t kPopularitySeed = 0x5EED;
// One request in this many is checked against PredictScore.
constexpr std::uint64_t kCheckEvery = 64;
// The burst phase sends bursts of one full batch (ServiceConfig's default
// max_batch, so each burst flushes on size, not on the deadline), drawn in
// turn from a seeded stream of this many requests.
constexpr std::size_t kBurst = 64;
constexpr std::size_t kBurstRequests = std::size_t{1} << 15;

struct ServeSetup {
  std::unique_ptr<World> world;
  std::unique_ptr<ts::PredictionService> service;
};

// A request: a tile-dataset kernel and one of its measured tiles.
struct Request {
  const tpuperf::data::TileKernelData* kernel = nullptr;
  const ir::TileConfig* tile = nullptr;
};

// Seeded request stream: Zipf(1) draws over a fixed popularity ranking of
// the kernels, and a uniformly drawn tile of the chosen kernel. The ranking
// does not depend on the seed: which kernels are popular sets the cost per
// request, and a seed should vary the traffic, not the mix's cost.
std::vector<Request> MakeRequests(const World& world, std::uint64_t seed,
                                  std::size_t count) {
  std::vector<std::size_t> by_rank(world.tile.kernels.size());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::mt19937_64 ranking(kPopularitySeed);
  std::shuffle(by_rank.begin(), by_rank.end(), ranking);
  std::mt19937_64 rng(Mix(seed, 11));
  const ZipfSampler zipf(by_rank.size(), kZipfExponent);
  std::vector<Request> out(count);
  for (Request& r : out) {
    r.kernel = &world.tile.kernels[by_rank[zipf(rng)]];
    r.tile = &r.kernel->configs[rng() % r.kernel->configs.size()];
  }
  return out;
}

struct RungRun {
  RungResult rung;
  ts::ServiceStats stats;  // batch counters over the rung (see Delta)
  std::vector<Request> requests;
  std::vector<double> served;  // per request (NaN unless checked or traced)
  std::vector<double> late_us;
};

// The batch counters the benchmark reads, accumulated between `a` and `b`.
ts::ServiceStats Delta(const ts::ServiceStats& a, const ts::ServiceStats& b) {
  ts::ServiceStats d;
  d.batches = b.batches - a.batches;
  d.deadline_flushes = b.deadline_flushes - a.deadline_flushes;
  d.batched_items = b.batched_items - a.batched_items;
  d.plan_compiles = b.plan_compiles - a.plan_compiles;
  return d;
}

// Offers `rate` requests/s for `seconds` on a seeded Poisson schedule. One
// thread sends on schedule, this thread drains the futures in send order;
// latency runs from the scheduled send. Requests that fail, are shed,
// expire, are rejected or degrade count as failures with infinite latency.
RungRun RunRung(Run& run, const World& world, ts::PredictionService& service,
                double rate, double seconds, std::uint64_t seed,
                bool keep_all) {
  RungRun out;
  const auto count = static_cast<std::size_t>(rate * seconds);
  const std::vector<double> at = PoissonSchedule(Mix(seed, 12), rate, count);
  out.requests = MakeRequests(world, seed, count);
  out.served.assign(count, std::nan(""));
  out.late_us.assign(count, 0.0);

  struct Issued {
    std::size_t index = 0;
    Clock::time_point scheduled;
    std::future<ts::PredictResult> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Issued> issued;
  bool done = false;
  std::uint64_t rejected = 0;

  const ts::ServiceStats before = service.stats();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  // jthread: joined on every exit path, exceptions included.
  std::jthread sender([&] {
    for (std::size_t i = 0; i < count; ++i) {
      const auto scheduled =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(at[i]));
      std::this_thread::sleep_until(scheduled);
      const auto sent = Clock::now();
      out.late_us[i] =
          std::chrono::duration<double, std::micro>(sent - scheduled).count();
      Issued next{i, scheduled, {}};
      try {
        next.future = service.PredictAsync(
            out.requests[i].kernel->record.kernel.graph, out.requests[i].tile);
      } catch (...) {  // rejected: OverloadedError, or the service stopped
        ++rejected;
        continue;
      }
      {
        std::lock_guard lock(mu);
        issued.push_back(std::move(next));
      }
      cv.notify_one();
    }
    std::lock_guard lock(mu);
    done = true;
    cv.notify_one();
  });

  std::vector<double> latencies;
  latencies.reserve(count);
  Clock::time_point last = start;
  for (;;) {
    Issued next;
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return !issued.empty() || done; });
      if (issued.empty()) break;
      next = std::move(issued.front());
      issued.pop_front();
    }
    try {
      const ts::PredictResult r = next.future.get();
      last = Clock::now();
      if (r.degraded) {
        latencies.push_back(INFINITY);
        continue;
      }
      const double us =
          std::chrono::duration<double, std::micro>(last - next.scheduled)
              .count();
      latencies.push_back(us);
      if (keep_all || next.index % kCheckEvery == 0) {
        out.served[next.index] = r.value;
      }
      run.tracer.Add("serve.request", next.scheduled, last, next.index);
    } catch (...) {
      latencies.push_back(INFINITY);
    }
  }
  sender.join();
  for (std::uint64_t i = 0; i < rejected; ++i) latencies.push_back(INFINITY);
  for (std::size_t i = 0; run.tracer.armed() && i < count; ++i) {
    const auto scheduled = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(at[i]));
    run.tracer.Add("serve.generator_late", scheduled,
                   scheduled + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::micro>(
                                       out.late_us[i])),
                   i);
  }
  const double elapsed =
      std::chrono::duration<double>(last - start).count();
  const std::size_t completed = static_cast<std::size_t>(std::count_if(
      latencies.begin(), latencies.end(),
      [](double l) { return std::isfinite(l); }));
  out.rung = SummarizeRung(
      rate, static_cast<double>(count) / at.back(),
      elapsed > 0 ? static_cast<double>(completed) / elapsed : 0.0,
      latencies);
  out.stats = Delta(before, service.stats());
  return out;
}

// A served score must be bit-identical to PredictScore on the same inputs.
void CheckScore(ts::PredictionService& service, const Request& q,
                double served) {
  const auto& record = q.kernel->record;
  const tc::PreparedKernel& pk =
      service.prepared_cache().Get(record.kernel.graph, record.fingerprint);
  CheckSame(served, service.model().PredictScore(pk, q.tile),
            "a served score differs from PredictScore");
}

void CheckServed(ts::PredictionService& service, const RungRun& r) {
  for (std::size_t i = 0; i < r.requests.size(); ++i) {
    if (!std::isnan(r.served[i])) CheckScore(service, r.requests[i], r.served[i]);
  }
}

struct BurstPhase {
  double completions_per_s = 0;  // median over bursts (see RunBursts)
  std::vector<double> burst_ms;  // per burst: first send to last completion
};

// The burst phase's sample count, median and tail for the report line.
std::string BurstJson(const BurstPhase& phase) {
  const double tail = TailQuantile(phase.burst_ms.size());
  return "{\"bursts\": " + std::to_string(phase.burst_ms.size()) +
         ", \"p50_ms\": " + JsonNumber(Median(phase.burst_ms)) +
         ", \"tail_quantile\": " + JsonNumber(tail) +
         ", \"tail_ms\": " + JsonNumber(Percentile(phase.burst_ms, tail)) +
         ", \"per_s\": " + JsonNumber(phase.completions_per_s) + "}";
}

// Closed loop, one caller: this thread sends a burst of kBurst requests,
// waits for all of them, and sends the next, for `seconds`.
//
// Keeping more bursts outstanding (saturation) was tried and dropped: with
// four outstanding, batches stopped lining up with bursts and the completion
// rate moved between 22k and 32k req/s from run to run, while one burst at a
// time held within a tenth.
BurstPhase RunBursts(Run& run, const World& world,
                     ts::PredictionService& service, double seconds,
                     std::uint64_t seed) {
  const std::vector<Request> requests =
      MakeRequests(world, seed, kBurstRequests);
  std::vector<Clock::time_point> done;  // per burst
  std::vector<double> burst_ms;
  std::vector<std::future<ts::PredictResult>> futures(kBurst);
  std::vector<std::pair<std::size_t, double>> checked;  // (request, score)
  std::size_t sent = 0;
  long failed = 0;
  const auto start = Clock::now();
  while (SecondsSince(start) < seconds) {
    const std::size_t first = sent;
    const auto sent_at = Clock::now();
    for (auto& future : futures) {
      const Request& q = requests[sent++ % requests.size()];
      try {
        future = service.PredictAsync(q.kernel->record.kernel.graph, q.tile);
      } catch (...) {  // rejected: OverloadedError, or the service stopped
        future = {};
        ++failed;
      }
    }
    for (std::size_t j = 0; j < kBurst; ++j) {
      if (!futures[j].valid()) continue;
      try {
        const ts::PredictResult r = futures[j].get();
        if (r.degraded) {
          ++failed;
        } else if ((first + j) % kCheckEvery == 0) {
          checked.emplace_back(first + j, r.value);
        }
      } catch (...) {
        ++failed;
      }
    }
    done.push_back(Clock::now());
    burst_ms.push_back(
        std::chrono::duration<double>(done.back() - sent_at).count() * 1e3);
  }
  // Checked after the phase, so no check is timed.
  for (const auto& [index, value] : checked) {
    CheckScore(service, requests[index % requests.size()], value);
  }
  run.attempted += static_cast<long>(sent);
  run.failed += failed;
  Check(failed == 0,
        "requests failed, were shed, expired, rejected or degraded");

  // Per burst after the first: its requests over the time since the
  // previous burst completed. A median over bursts, like the latency, so a
  // host stall of a fraction of a second does not move it.
  std::vector<double> rates;
  for (std::size_t k = 1; k < done.size(); ++k) {
    rates.push_back(static_cast<double>(kBurst) /
                    std::chrono::duration<double>(done[k] - done[k - 1])
                        .count());
  }
  Check(!rates.empty(), "the burst phase completed fewer than two bursts");
  return {Median(rates), std::move(burst_ms)};
}

// Replays the traced rung's traffic through public calls: Prepare per
// distinct kernel, then batches of the run's mean size in arrival order
// (packing, forward, plan compile per bucket, plan replay, whose scores must
// equal the served ones). Adds the per-request coverage to the attribution.
void ReplayServe(Run& run, const tc::LearnedCostModel& model,
                 const RungRun& r, double p50_us) {
  const double mean_batch = r.stats.mean_batch_size();
  const std::size_t batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(mean_batch)));

  InferenceWork work;
  std::map<std::uint64_t, std::size_t> kernel_of;
  for (std::size_t b = 0; b < r.requests.size(); b += batch) {
    std::vector<InferenceWork::Item> items;
    std::vector<double> served;
    for (std::size_t i = b; i < std::min(r.requests.size(), b + batch); ++i) {
      const auto& record = r.requests[i].kernel->record;
      const auto [it, added] =
          kernel_of.emplace(record.fingerprint, work.kernels.size());
      if (added) work.kernels.push_back(&record.kernel.graph);
      items.push_back({it->second, r.requests[i].tile});
      served.push_back(r.served[i]);
    }
    work.batches.push_back(std::move(items));
    work.expected_scores.push_back(std::move(served));
  }
  const InferenceCosts c = ReplayInference(model, work);
  ReportInference(run, c);

  const double items = static_cast<double>(c.items);
  const double batches = static_cast<double>(r.stats.batches);
  const double compile_share =
      static_cast<double>(r.stats.plan_compiles) / batches;
  run.Attribute("serve.plan_compile_share", compile_share);
  // A request's replayed work: its share of a first-seen kernel's prepare,
  // its batch's packing and replay, and its batch's share of plan compiles.
  run.Attribute("coverage.serve.request",
                (c.prepare_s / items + mean_batch * (c.pack_s + c.replay_s) /
                                           items +
                 compile_share * c.compile_s / static_cast<double>(c.plans)) *
                    1e6 / p50_us);
}

}  // namespace

void RunServe(Run& run) {
  tc::ThreadPool::SetNumThreads(kServePoolWidth);
  ServeSetup setup = RepeatSetup(run, [&] {
    ServeSetup s;
    s.world = BuildWorld(run, {.tile = true});
    Trained trained;
    {
      Scope span(run.tracer, "core.setup_train", 0);
      trained = TrainTileModel(*s.world, kSetupTrainSteps, kReferenceModelSeed);
    }
    ts::ServiceConfig config;
    config.num_threads = kServeWorkers;
    // Unbounded queue: overload shows as latency against the 2 ms limit
    // rather than as rejected requests.
    config.queue_cap = 0;
    Scope span(run.tracer, "serve.boot", 0);
    s.service = std::make_unique<ts::PredictionService>(
        std::move(trained.model), config);
    return s;
  });
  const World& world = *setup.world;
  ts::PredictionService& service = *setup.service;
  run.service_workers = kServeWorkers;
  const long featurized = tpuperf::feat::FeaturizeKernelInvocations();

  const auto check_rung = [&](const RungRun& r) {
    run.attempted += static_cast<long>(r.rung.sent);
    run.failed += static_cast<long>(r.rung.failed);
    Check(r.rung.failed == 0,
          "requests failed, were shed, expired, rejected or degraded");
    CheckServed(service, r);
  };
  const auto rung_json = [](const RungRun& r) {
    return "{\"offered\": " + JsonNumber(r.rung.offered_per_s) +
           ", \"achieved\": " + JsonNumber(r.rung.achieved_per_s) +
           ", \"p50_us\": " + JsonNumber(r.rung.p50_us) +
           ", \"p90_us\": " + JsonNumber(r.rung.p90_us) +
           ", \"mean_batch\": " + JsonNumber(r.stats.mean_batch_size()) +
           ", \"passes\": " + (RungPasses(r.rung) ? "true" : "false") + "}";
  };

  // Warm-up at the reference rate on its own seed, not measured: the first
  // requests of a fresh service would otherwise charge the first rung alone
  // with featurizing the most popular kernels and compiling plans.
  run.tracer.set_armed(false);
  check_rung(RunRung(run, world, service, kReferenceRate, kWarmupSeconds,
                     Mix(run.options.seed, 99), false));
  run.tracer.set_armed(run.options.trace);

  if (!run.options.trace) {
    // Half the run in bursts (gated), a quarter at the reference rate and a
    // quarter on the ladder's other rungs (reported).
    const double quarter = run.options.seconds / 4;
    const BurstPhase bursts = RunBursts(run, world, service, 2 * quarter,
                                        Mix(run.options.seed, 14));
    const RungRun reference = RunRung(run, world, service, kReferenceRate,
                                      quarter, Mix(run.options.seed, 0), false);
    check_rung(reference);
    std::vector<RungResult> rungs = {reference.rung};
    std::string ladder = "[";
    ladder += rung_json(reference);
    for (std::size_t i = 1; i < std::size(kLadder); ++i) {
      const RungRun r =
          RunRung(run, world, service, kLadder[i],
                  quarter / (std::size(kLadder) - 1),
                  Mix(run.options.seed, i), false);
      check_rung(r);
      ladder += ", " + rung_json(r);
      rungs.push_back(r.rung);
    }
    run.result.Report("ladder", ladder + "]");
    // Open-loop latency and the ladder's capacity are reported, not gated:
    // on a shared 4-vCPU host, wake-up delays moved the reference p50 by a
    // third and its p90 between 0.6 and 4.5 ms from run to run, and a run
    // lands on either side of the capacity edge.
    run.result.Report("p50_us", JsonNumber(reference.rung.p50_us));
    run.result.Report("p90_us", JsonNumber(reference.rung.p90_us));
    run.result.Report("max_qps", JsonNumber(MaxPassingRate(rungs)));
    run.EndToEnd("throughput_per_s", bursts.completions_per_s, "1/s");
    run.result.Report("bursts", BurstJson(bursts));
    run.EndToEnd("latency_ms_p50", Median(bursts.burst_ms), "ms");
    run.EndToEnd("quality",
                 Median(EvaluateTile(run, world, service.model(),
                                     service.prepared_cache())
                            .values),
                 "score");
    return;
  }

  // Traced: the reference rate untraced (overhead baseline), then traced
  // with every served score kept for the replay.
  const double phase = run.options.seconds / 2;
  run.tracer.set_armed(false);
  const RungRun untraced =
      RunRung(run, world, service, kReferenceRate, phase,
              Mix(run.options.seed, 0), false);
  run.tracer.set_armed(true);
  const RungRun traced = RunRung(run, world, service, kReferenceRate, phase,
                                 Mix(run.options.seed, 0), true);
  check_rung(untraced);
  check_rung(traced);
  // Open loop: the rate is fixed, so overhead shows as median latency.
  ReportOverhead(run, 1.0 / untraced.rung.p50_us, 1.0 / traced.rung.p50_us);
  ReportSetupLayers(run);
  run.Layer("features.featurize_calls",
            static_cast<double>(tpuperf::feat::FeaturizeKernelInvocations() -
                                featurized),
            "count");
  run.Layer("core.prepared_kernels",
            static_cast<double>(service.prepared_cache().size()), "count");
  const ts::ServiceStats& s = traced.stats;
  run.Attribute("serve.batches", static_cast<double>(s.batches));
  run.Attribute("serve.mean_batch_size", s.mean_batch_size());
  run.Attribute("serve.deadline_flush_share",
                static_cast<double>(s.deadline_flushes) /
                    static_cast<double>(s.batches));
  run.Attribute("serve.generator_late_us_p99",
                Percentile(traced.late_us, 0.99));
  ReplayServe(run, service.model(), traced, traced.rung.p50_us);

  std::vector<int> programs(world.corpus.size());
  std::iota(programs.begin(), programs.end(), 0);
  ReportLayerCosts(run,
                   MeasureLayerCosts(world, programs, Mix(run.options.seed, 3)));
  ReportEvaluations(run, {EvaluateTile(run, world, service.model(),
                                       service.prepared_cache())});
  // The served model is the service's; the training-step replay runs on a
  // model trained the same way, outside the set-up spans.
  Trained twin =
      TrainTileModel(world, kSetupTrainSteps, kReferenceModelSeed);
  std::mt19937_64 rng(Mix(run.options.seed, 7));
  ReportTrainSteps(run, {ReplayTrainSteps(world, twin, rng)});
}

}  // namespace perfbench
