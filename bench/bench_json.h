// Machine-readable bench output. Every bench that models device runs accepts
// `--json <path>` and appends one record per measurement; the file holds
//   {"bench": "<name>", "records": [ {...}, ... ]}
// with RunReport / GraphCounts fields serialized by their ToJson() methods,
// so BENCH_*.json schemas track the structs instead of hand-formatted rows.
#pragma once

#include <cstdio>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ipusim/engine.h"
#include "ipusim/exe_cache.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "util/error.h"

namespace repro {

// One stdout line with the process-wide engine host wall-clock counters
// (ipusim/engine.h). stdout only, never the --json records: wall clock is
// not reproducible, and the JSON bytes are held to equality across runs.
inline void PrintEngineHostWall() {
  const ipu::EngineHostStats s = ipu::EngineHostStatsSnapshot();
  const double build_vps =
      s.build_seconds > 0.0
          ? static_cast<double>(s.build_vertices) / s.build_seconds
          : 0.0;
  const double run_vps =
      s.run_seconds > 0.0 ? static_cast<double>(s.run_vertices) / s.run_seconds
                          : 0.0;
  std::printf(
      "engine host wall: build %.6f s (%llu vertices, %.6g vertices/s), "
      "run %.6f s (%llu vertices, %llu dispatches, %.6g vertices/s)\n",
      s.build_seconds, static_cast<unsigned long long>(s.build_vertices),
      build_vps, s.run_seconds, static_cast<unsigned long long>(s.run_vertices),
      static_cast<unsigned long long>(s.run_dispatches), run_vps);
}

class BenchJsonWriter {
 public:
  // `path` empty disables the writer (records are dropped).
  BenchJsonWriter(std::string bench_name, std::string path)
      : bench_name_(std::move(bench_name)), path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  // `record` must already be a serialized JSON object.
  void Add(std::string record) {
    if (enabled()) records_.push_back(std::move(record));
  }

  void Write() const {
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    REPRO_REQUIRE(f != nullptr, "cannot open bench json output '%s'",
                  path_.c_str());
    std::fprintf(f, "{\"bench\": \"%s\", \"records\": [", bench_name_.c_str());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ", ", records_[i].c_str());
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %zu records to %s\n", records_.size(), path_.c_str());
  }

 private:
  std::string bench_name_;
  std::string path_;
  std::vector<std::string> records_;
};

// The shared bench I/O surface: every bench that models device runs takes
// the same three flags, parsed once here instead of per bench --
//   --json <path>       machine-readable records (BenchJsonWriter),
//   --trace <path>      Perfetto trace of the run (tracer() is null
//                       without the flag, so untraced runs cost nothing),
//   --cache-dir <path>  on-disk ExeCache (always on in-process; the flag
//                       adds persistence so warm reruns skip compiles).
// Finish() writes trace then JSON in the order every bench already used,
// so --json / --trace bytes are unchanged by the migration.
class BenchIo {
 public:
  BenchIo(std::string bench_name, Cli& cli)
      : trace_path_(cli.GetString("trace", "")),
        cache_dir_(cli.GetString("cache-dir", "")),
        json_(std::move(bench_name), cli.GetString("json", "")),
        cache_(cache_dir_) {}

  BenchJsonWriter& json() { return json_; }
  ipu::ExeCache& cache() { return cache_; }
  const std::string& cacheDir() const { return cache_dir_; }
  // Null when --trace is absent: plans and servers skip emission entirely.
  obs::Tracer* tracer() { return trace_path_.empty() ? nullptr : &tracer_; }

  void Add(std::string record) { json_.Add(std::move(record)); }

  // Disk/process cache statistics, stdout only: they depend on what a
  // previous run left in --cache-dir while the --json bytes are held to
  // cold-vs-warm equality. Format is pinned by the scripts/check.sh grep
  // 'compile cache: .* disk hits, 0 compiles'.
  void PrintCacheStats() const {
    const ipu::ExeCacheStats cs = cache_.stats();
    std::printf(
        "\ncompile cache: %zu lookups, %zu memory hits, %zu disk hits, "
        "%zu compiles, %zu artifacts stored%s%s\n",
        cs.lookups(), cs.memory_hits, cs.disk_hits, cs.misses, cs.disk_stores,
        cache_dir_.empty() ? "" : " in ", cache_dir_.c_str());
  }

  // Writes the --trace file (with its stdout pointer lines) and then the
  // --json records; call once at the end of main.
  void Finish() {
    if (tracer() != nullptr) {
      const Status ws = tracer_.WriteFile(trace_path_);
      REPRO_REQUIRE(ws.ok(), "writing trace %s: %s", trace_path_.c_str(),
                    ws.message().c_str());
      std::printf(
          "\ntrace: %s (load in https://ui.perfetto.dev)\ncounters: %s\n",
          trace_path_.c_str(), tracer_.CountersToJson().c_str());
    }
    json_.Write();
  }

 private:
  std::string trace_path_;
  std::string cache_dir_;
  BenchJsonWriter json_;
  ipu::ExeCache cache_;
  obs::Tracer tracer_;
};

}  // namespace repro
