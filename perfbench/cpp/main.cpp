// perfbench: host-time benchmark of the simulator and its serving stack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--threads <n>] [--tiny] [--work-dir <dir>] [--trace-out <f>]
//
// Sets the workload up at least five times and for about a second
// (setup_s is the median), runs one untimed warm-up iteration, then
// iterates back to back for --seconds.
// --trace 1 spends half the time untraced and half traced, runs the
// workload's component probes, writes the spans as a Chrome trace and
// reports per-layer values. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "values": {name: value}}
// perfbench/run.py attaches units and selects the metrics BENCHMARK.json
// declares.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "util/parallel.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 50;
constexpr double kSetupBudgetS = 1.0;
constexpr std::size_t kMinIterations = 3;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct LoopStats {
  std::vector<double> iter_s, cpu_s, units_per_s;
  std::size_t units = 0, failed = 0;
  std::vector<IterResult> results;
};

// Iterates until `budget_s` has passed and at least `min_iters` ran.
LoopStats RunLoop(Workload& w, SpanRecorder& rec, double budget_s,
                  std::size_t min_iters) {
  LoopStats s;
  const auto start = Clock::now();
  while (s.iter_s.size() < min_iters || Since(start) < budget_s) {
    const double cpu0 = CpuSeconds();
    const auto t0 = Clock::now();
    IterResult r;
    {
      auto root = rec.Iteration(s.iter_s.size());
      r = w.Iterate(rec);
    }
    const double dt = Since(t0);
    s.cpu_s.push_back(CpuSeconds() - cpu0);
    s.iter_s.push_back(dt);
    s.units_per_s.push_back(static_cast<double>(r.units) / dt);
    s.units += r.units;
    s.failed += r.failed;
    s.results.push_back(std::move(r));
    w.AfterIteration();
  }
  return s;
}

// The highest percentile with at least ten iterations beyond it; the
// slowest iteration when there are fewer than eleven.
double Tail(std::vector<double> v, double* pct) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t i = n >= 11 ? n - 11 : n - 1;
  *pct = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return v[i];
}

// "<base>@<method>" spans feed "<base>_s" and "<base>_s.<method>".
void AddSpanTime(std::map<std::string, double>& m, const std::string& name,
                 double seconds) {
  const std::size_t at = name.find('@');
  if (at == std::string::npos) {
    m[name + "_s"] += seconds;
    return;
  }
  m[name.substr(0, at) + "_s"] += seconds;
  m[name.substr(0, at) + "_s." + name.substr(at + 1)] += seconds;
}

double Get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

void Ratio(std::map<std::string, double>& m, const std::string& out,
           double num, const std::string& den, double scale) {
  if (Get(m, den) > 0.0) m[out] = num / Get(m, den) * scale;
}

const char* const kLayers[] = {"nn",    "linalg",  "data", "ipusim",
                               "serve", "cluster", "obs"};

// Per-layer values of a traced loop: medians over its iterations of span
// time per name, counters and self time per layer.
std::map<std::string, double> PerLayer(const SpanRecorder& rec,
                                       const LoopStats& traced) {
  std::map<std::uint64_t, std::map<std::string, double>> per_iter;
  for (const auto& [id, names] : rec.DurationsByName()) {
    for (const auto& [name, sec] : names) {
      if (name != "bench.iteration") AddSpanTime(per_iter[id], name, sec);
    }
  }
  for (const auto& [id, layers] : rec.SelfTimeByLayer()) {
    for (const auto& [layer, sec] : layers) {
      per_iter[id][layer == "bench" ? "layer.unattributed_s"
                                    : "layer." + layer + ".self_s"] += sec;
    }
  }
  // Library-measured counters override derived span sums of the same name
  // (derived spans are clamped to their parent).
  std::uint64_t id = 0;
  for (const IterResult& r : traced.results) {
    for (const auto& [name, v] : r.counters) per_iter[id][name] = v;
    ++id;
  }
  std::map<std::string, std::vector<double>> series;
  for (const auto& [it, values] : per_iter) {
    for (const auto& [name, v] : values) series[name];
  }
  for (auto& [name, vs] : series) {
    for (auto& [it, values] : per_iter) {
      const auto f = values.find(name);
      vs.push_back(f == values.end() ? 0.0 : f->second);
    }
  }
  std::map<std::string, double> m;
  for (const auto& [name, vs] : series) m[name] = Median(vs);
  for (const char* layer : kLayers) m.try_emplace(std::string("layer.") + layer + ".self_s", 0.0);
  m.try_emplace("layer.unattributed_s", 0.0);
  return m;
}

void Derive(std::map<std::string, double>& m) {
  Ratio(m, "ipusim.compile_ns_per_vertex", Get(m, "ipusim.compile_s"),
        "ipusim.compile_vertices", 1e9);
  Ratio(m, "ipusim.vertices_per_dispatch", Get(m, "ipusim.run_vertices"),
        "ipusim.run_dispatches", 1.0);
  Ratio(m, "ipusim.run_ns_per_vertex", Get(m, "ipusim.engine_run_s"),
        "ipusim.run_vertices", 1e9);
  Ratio(m, "serve.des_ns_per_request",
        Get(m, "serve.des_closed_s") + Get(m, "serve.des_open_s"),
        "serve.des_requests", 1e9);
  Ratio(m, "cluster.router_ns_per_request", Get(m, "cluster.router_s"),
        "cluster.router_requests", 1e9);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--threads <n>] [--tiny] "
               "[--work-dir <dir>] [--trace-out <file>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir = ".bench_build/work", trace_out;
  double seconds = 10.0;
  bool trace = false;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      opts.sizes = Sizes::Tiny();
    } else if (!has_value) {
      return Usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      trace = std::string(argv[++i]) == "1";
    } else if (a == "--threads") {
      opts.threads = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--work-dir") {
      work_dir = argv[++i];
    } else if (a == "--trace-out") {
      trace_out = argv[++i];
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  if (opts.threads == 0 || !(seconds > 0.0)) return Usage("bad --threads or --seconds");
  repro::SetParallelWorkers(opts.threads);
  opts.work_dir = work_dir;
  std::filesystem::create_directories(work_dir);

  // Set-up, several times: setup_s is the median. A cheap set-up repeats for
  // a while so its median is not one page-fault pattern.
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  const auto setup_start = Clock::now();
  while (setups.size() < kMinSetups ||
         (setups.size() < kMaxSetups && Since(setup_start) < kSetupBudgetS)) {
    w.reset();
    const auto t0 = Clock::now();
    w = MakeWorkload(workload, opts);
    setups.push_back(Since(t0));
    if (w == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());
  }

  // Untimed warm-up (the first iteration in a process runs slower); it also
  // fixes the references later iterations are checked against.
  SpanRecorder off(false);
  LoopStats warm = RunLoop(*w, off, 0.0, 1);

  LoopStats plain =
      RunLoop(*w, off, trace ? seconds / 2 : seconds, kMinIterations);
  std::size_t attempted = plain.units, failed = plain.failed;
  std::map<std::string, double> values;
  const double p50 = Median(plain.iter_s);
  std::printf("workload %s seed %llu threads %zu: %zu iterations, %zu units\n",
              workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.threads, plain.iter_s.size(), plain.units);
  std::uint64_t digest = warm.results.front().digest;
  for (const LoopStats* s : {&warm, &plain}) {
    for (const IterResult& r : s->results) {
      if (r.digest != digest) {
        std::printf("simulated-output digest changed between iterations\n");
        failed += r.units;
      }
    }
  }

  if (!trace) {
    double pct = 0.0;
    values["setup_s"] = Median(setups);
    // Medians over iterations, so that a burst of load from elsewhere on the
    // host moves one iteration, not the run's figure.
    values["units_per_s"] = Median(plain.units_per_s);
    values["iter_p50_s"] = p50;
    values["iter_tail_s"] = Tail(plain.iter_s, &pct);
    values["cpu_s"] = Median(plain.cpu_s);
    values["peak_rss_mb"] = PeakRssMb();
    std::printf("iter_tail_s is p%.1f of %zu iterations\n", pct, plain.iter_s.size());
  } else {
    SpanRecorder rec(true);
    LoopStats traced = RunLoop(*w, rec, seconds / 2, kMinIterations);
    attempted += traced.units;
    failed += traced.failed;
    for (const IterResult& r : traced.results) {
      if (r.digest != digest) {
        std::printf("traced iteration changed the simulated-output digest\n");
        failed += r.units;
      }
    }
    values = PerLayer(rec, traced);
    for (const auto& [k, v] : w->Probe(values)) values[k] = v;
    Derive(values);
    const double traced_p50 = Median(traced.iter_s);
    values["trace.overhead_s"] = traced_p50 - p50;
    for (const auto& [k, v] : traced.results.back().sim) values[k] = v;
    // 48 bits keep the digest exact as a JSON number.
    values["sim.digest"] = static_cast<double>(digest & ((1ull << 48) - 1));

    std::printf("self time per layer (median of %zu traced iterations, "
                "traced iter_p50 %.4f s, untraced %.4f s):\n",
                traced.iter_s.size(), traced_p50, p50);
    for (const char* layer : kLayers) {
      const double s = values[std::string("layer.") + layer + ".self_s"];
      std::printf("  %-12s %9.4f s  %5.1f%%\n", layer, s,
                  100.0 * s / traced_p50);
    }
    const double un = values["layer.unattributed_s"];
    std::printf("  %-12s %9.4f s  %5.1f%%\n", "unattributed", un,
                100.0 * un / traced_p50);
    if (!trace_out.empty()) {
      std::ofstream(trace_out) << rec.ChromeTraceJson();
      std::printf("trace: %s\n", trace_out.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += (failed == 0 && attempted > 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"values\": {";
  bool first = true;
  for (const auto& [k, v] : values) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    json += (first ? "\"" : ", \"") + k + "\": " + buf;
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
  return 0;
}
