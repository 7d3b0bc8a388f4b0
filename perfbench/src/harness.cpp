#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sched.h>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(
                                                         values.size()))) -
      1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t mid = values.size() / 2;
  const auto middle = values.begin() + static_cast<std::ptrdiff_t>(mid);
  std::nth_element(values.begin(), middle, values.end());
  if (values.size() % 2 == 1) return *middle;
  return (*std::max_element(values.begin(), middle) + *middle) / 2;
}

double TailQuantile(std::size_t n) {
  double best = 0.5;
  for (const double q : {0.9, 0.99, 0.999, 0.9999}) {
    const double rank = std::ceil(q * static_cast<double>(n));
    if (static_cast<double>(n) - rank >= 10.0) best = q;
  }
  return best;
}

std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    std::size_t count) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_per_s);
  std::vector<double> at(count);
  double t = 0;
  for (double& offset : at) {
    t += gap(rng);
    offset = t;
  }
  return at;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: empty support");
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::operator()(std::mt19937_64& rng) const {
  // 53 random bits -> [0, 1), independent of the library's distributions.
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

RungResult SummarizeRung(double offered_per_s, double schedule_per_s,
                         double achieved_per_s,
                         const std::vector<double>& latencies_us) {
  RungResult r;
  r.offered_per_s = offered_per_s;
  r.schedule_per_s = schedule_per_s;
  r.achieved_per_s = achieved_per_s;
  r.sent = latencies_us.size();
  r.failed = static_cast<std::uint64_t>(std::count_if(
      latencies_us.begin(), latencies_us.end(),
      [](double l) { return !std::isfinite(l); }));
  std::vector<double> p50s, p90s;
  const std::size_t n = latencies_us.size();
  for (std::size_t w = 0; w < kRungWindows; ++w) {
    const auto begin = latencies_us.begin() + static_cast<std::ptrdiff_t>(
                                                  n * w / kRungWindows);
    const auto end = latencies_us.begin() + static_cast<std::ptrdiff_t>(
                                                n * (w + 1) / kRungWindows);
    if (begin == end) continue;
    const std::vector<double> window(begin, end);
    p50s.push_back(Percentile(window, 0.5));
    p90s.push_back(Percentile(window, 0.9));
  }
  r.p50_us = Median(p50s);
  r.p90_us = Median(p90s);
  return r;
}

bool RungPasses(const RungResult& rung) {
  return rung.sent > 0 && rung.failed == 0 &&
         rung.p90_us <= kServeP90LimitUs &&
         rung.achieved_per_s >= kServeMinAchievedShare * rung.schedule_per_s;
}

double MaxPassingRate(const std::vector<RungResult>& rungs) {
  double best = 0;
  for (const RungResult& rung : rungs) {
    if (RungPasses(rung)) best = std::max(best, rung.offered_per_s);
  }
  return best;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!ValidMetricName(name)) {
    throw std::invalid_argument("invalid metric name: " + name);
  }
  if (!metrics_.emplace(name, Metric{value, unit}).second) {
    throw std::invalid_argument("metric reported twice: " + name);
  }
}

void Result::Report(const std::string& key, const std::string& json_value) {
  report_.emplace_back(key, json_value);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  // The shortest of %.15g..%.17g that reads back as the same double.
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

const Metric* Result::Find(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : &it->second;
}

void Result::Print(bool correct, long attempted, long failed) const {
  std::string report = "{\"report\": {";
  for (std::size_t i = 0; i < report_.size(); ++i) {
    if (i > 0) report += ", ";
    report += JsonString(report_[i].first) + ": " + report_[i].second;
  }
  report += "}}";
  std::printf("%s\n", report.c_str());

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) line += ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Tracer::Begin(const char* name, std::uint64_t group) {
  std::lock_guard lock(mu_);
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, Clock::now(), {}, parent, group});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  const auto now = Clock::now();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Add(const char* name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t group, int parent) {
  if (!armed_) return;
  std::lock_guard lock(mu_);
  spans_.push_back({name, start, end, parent, group});
}

std::map<std::string, Tracer::Totals> Tracer::Aggregate() const {
  std::lock_guard lock(mu_);
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_seconds[static_cast<std::size_t>(s.parent)] +=
          std::chrono::duration<double>(s.end - s.start).count();
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double d = std::chrono::duration<double>(s.end - s.start).count();
    Totals& t = out[s.name];
    t.seconds += d;
    t.self_seconds += d - child_seconds[i];
    ++t.count;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\": " << JsonString(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << (s.parent < 0 ? 1 : 2) << ", \"ts\": " << JsonNumber(us(s.start))
        << ", \"dur\": " << JsonNumber(us(s.end) - us(s.start))
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"group\": " << s.group << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

// CPUs this process may run on, as nproc counts them.
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

}  // namespace

std::string HostJson(const std::string& source_id, int pool_width,
                     int service_workers) {
  std::string model = "unknown";
  std::set<std::string> flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key =
        line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags" && flags.empty()) {
      std::istringstream words(value);
      std::string flag;
      while (words >> flag) {
        if (flag == "sse4_2" || flag == "avx" || flag == "avx2" ||
            flag == "fma" || flag == "f16c" ||
            flag.rfind("avx512", 0) == 0 || flag.rfind("amx", 0) == 0) {
          flags.insert(flag);
        }
      }
    }
  }
  std::string isa = "[";
  for (const std::string& f : flags) {
    isa += (isa.size() > 1 ? ", " : "") + JsonString(f);
  }
  isa += "]";
#ifdef PERFBENCH_BUILD_TYPE
  const char* build_type = PERFBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  return "{\"cpu_model\": " + JsonString(model) + ", \"isa\": " + isa +
         ", \"nproc\": " + std::to_string(Nproc()) +
         ", \"pool_width\": " + std::to_string(pool_width) +
         ", \"service_workers\": " + std::to_string(service_workers) +
         ", \"compiler\": " + JsonString(kCompiler) +
         ", \"build_type\": " + JsonString(build_type) +
         ", \"source\": " + JsonString(source_id) + "}";
}

}  // namespace perfbench
