// The benchmark's three workloads. Each one is set up from a seed, then runs
// iterations back to back (a closed loop with one caller) and checks every
// unit of work an iteration completes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "spans.h"

namespace perfbench {

struct Sizes {
  std::size_t n = 1024;             // SHL hidden width
  std::size_t max_batch = 32;       // compiled serving batch
  std::size_t cap = 256;            // capacity-probe bound
  std::size_t request_factor = 8;   // capacity requests per client
  std::size_t replay_replicas = 8;  // serve_replay pool size
  std::size_t replay_requests = 2048;
  std::size_t replay_rows = 256;    // distinct request feature rows
  std::size_t train_samples = 450;
  std::size_t test_samples = 150;

  // Smoke-test sizes: the same code paths at a fraction of the cost.
  static Sizes Tiny();
};

struct Options {
  std::uint64_t seed = 1;
  std::size_t threads = 2;  // REPRO_THREADS and every host_threads knob
  Sizes sizes;
  std::string work_dir;  // where compile-cache directories are created
};

struct IterResult {
  std::size_t units = 0;
  std::size_t failed = 0;
  // Per-layer counts and library-measured seconds of this iteration, named
  // like the per-layer metrics they feed.
  std::map<std::string, double> counters;
  // Simulated outputs: exact values and a digest over all of them.
  std::map<std::string, double> sim;
  std::uint64_t digest = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One iteration; spans go to `rec` (inert unless tracing).
  virtual IterResult Iterate(SpanRecorder& rec) = 0;
  // Untimed clean-up after an iteration (e.g. removing a cache directory).
  virtual void AfterIteration() {}
  // Untimed component measurements at each layer's public boundary, run
  // once after the traced iterations. `traced` holds the per-layer medians
  // of those iterations; the result adds per-iteration values.
  virtual std::map<std::string, double> Probe(
      const std::map<std::string, double>& /*traced*/) {
    return {};
  }
};

// Builds the named workload's inputs (this is what setup_s times). Returns
// null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& opts);

// FNV-1a over a string, for the simulated-output digests.
std::uint64_t Digest(const std::string& bytes, std::uint64_t seed = 0);

}  // namespace perfbench
