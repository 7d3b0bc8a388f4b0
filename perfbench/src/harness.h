// Measurement helpers of the repository benchmark: the percentile rule, the
// seeded open-loop schedule and popularity draw, the serving ladder rule,
// metric naming, result printing, and the in-memory span tracer.
//
// Everything here is benchmark-side: the library under test (src/) is only
// ever called through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Percentiles -----------------------------------------------------------

// Nearest-rank percentile of `values` (q in (0, 1]); NaN when empty. Values
// may include +inf (a failed request counts as missing any latency limit).
double Percentile(std::vector<double> values, double q);

// Median of `values` (mean of the middle two for an even count); NaN when
// empty.
double Median(std::vector<double> values);

// The tail percentile a sample of `n` timings supports: the highest of
// p50, p90, p99, p99.9, p99.99 with at least ten samples beyond it
// (p50 when even that has fewer than ten).
double TailQuantile(std::size_t n);

// ---- Seeded inputs ---------------------------------------------------------

// Open-loop Poisson arrivals: `count` send offsets in seconds from the start
// of a phase, exponential gaps at `rate_per_s`. Same seed, same schedule.
std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    std::size_t count);

// Zipf(s) popularity over ranks 0..n-1 (rank r has weight 1/(r+1)^s).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

// ---- Serving ladder --------------------------------------------------------

// Outcome of one fixed-rate rung of the serving ladder.
struct RungResult {
  double offered_per_s = 0;   // the rung's nominal rate
  double schedule_per_s = 0;  // the rate its seeded schedule realized
  double achieved_per_s = 0;  // completions per second
  std::uint64_t sent = 0;
  // Requests that failed, were shed, expired or were rejected. Each counts
  // as a miss of the latency limit.
  std::uint64_t failed = 0;
  double p50_us = 0;
  double p90_us = 0;
};

// Windows a rung's requests are split into, in send order. A rung's p50 and
// p90 are the medians of its windows' p50s and p90s: a host stall that
// spoils two windows of five does not decide the rung, three do.
inline constexpr std::size_t kRungWindows = 5;

// Builds a rung from per-request latencies in send order (microseconds from
// the scheduled send; +inf for a request that did not complete with a
// value).
RungResult SummarizeRung(double offered_per_s, double schedule_per_s,
                         double achieved_per_s,
                         const std::vector<double>& latencies_us);

inline constexpr double kServeP90LimitUs = 2000.0;
inline constexpr double kServeMinAchievedShare = 0.98;

// A rung passes when p90 <= 2 ms, the achieved rate is >= 98% of the rate
// its schedule offered, and no request failed.
bool RungPasses(const RungResult& rung);

// The highest nominal rate whose rung passes; 0 when none does.
double MaxPassingRate(const std::vector<RungResult>& rungs);

// ---- Metrics and results ---------------------------------------------------

// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(std::string_view name);

struct Metric {
  double value = 0;
  std::string unit;
};

// The result of one run: named metrics plus the extra report fields (host,
// widths, spans summary) printed on the line before the result.
class Result {
 public:
  // Throws std::invalid_argument on an invalid or repeated name.
  void Add(const std::string& name, double value, const std::string& unit);

  // The metric named `name`, or nullptr.
  const Metric* Find(const std::string& name) const;
  std::size_t size() const noexcept { return metrics_.size(); }

  // Free-form JSON members of the report line ("key": value pairs).
  void Report(const std::string& key, const std::string& json_value);

  // Prints the report line, then the result line (always last on stdout).
  void Print(bool correct, long attempted, long failed) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> report_;
};

std::string JsonString(std::string_view s);
std::string JsonNumber(double v);

// ---- Tracing ---------------------------------------------------------------

// One timed interval at a layer boundary. `group` ties together the spans of
// one program, step or request.
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  std::uint64_t group = 0;
};

// Spans kept in memory, written when the run ends. Disarmed, Begin/End cost
// one branch. Begin/End nest on the calling thread; Add records a finished
// span from any thread.
class Tracer {
 public:
  explicit Tracer(bool armed) : armed_(armed) {}
  bool armed() const noexcept { return armed_; }
  // Pauses or resumes recording; call only while no span is open and no
  // other thread records.
  void set_armed(bool armed) noexcept { armed_ = armed; }

  int Begin(const char* name, std::uint64_t group);
  void End(int id);
  void Add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint64_t group, int parent = -1);

  // Sum of durations and self time (duration minus the part covered by
  // child spans) per span name, in seconds.
  struct Totals {
    double seconds = 0;
    double self_seconds = 0;
    long count = 0;
  };
  std::map<std::string, Totals> Aggregate() const;

  // Writes Chrome trace-event JSON; returns false when the file cannot be
  // written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool armed_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // Begin/End stack of the nesting thread
};

// RAII span; a no-op when the tracer is disarmed.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t group)
      : tracer_(tracer), id_(tracer.armed() ? tracer.Begin(name, group) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---- Host ------------------------------------------------------------------

// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

// JSON object describing the host and build: CPU model, ISA flags, nproc,
// the library pool width and service workers the run used (0: no service),
// compiler, build type and the source identity passed in.
std::string HostJson(const std::string& source_id, int pool_width,
                     int service_workers);

}  // namespace perfbench
