// Replica pool: K independent engines over one compiled executable.
//
// Replication model: K replicas carve the device into equal tile slices of
// num_tiles / K tiles, each with the full fixed per-tile SRAM (624 KB on
// GC200). Whether a method's forward graph *compiles* on such a slice is
// the capacity question the paper's memory argument turns into a serving
// claim: butterfly/pixelfly weights are O(n log n) instead of O(n^2), so
// strictly more replicas fit per simulated IPU at equal hidden width --
// more replicas = more concurrent batches = higher sustained QPS.
//
// ProbeMaxReplicas finds that limit with timing-only plans (no tensor
// storage, one compile per slice size) via doubling + binary search; the
// pool then instantiates the chosen K, which share the plan's one host copy
// of the weights and hold private activation storage each.
#pragma once

#include <memory>
#include <vector>

#include "serve/model_plan.h"

namespace repro::serve {

class ReplicaPool {
 public:
  // Spawns `replicas` engines off the plan's compiled executable. For
  // execute plans every replica reads the trained weights from the plan's
  // session engine (ModelPlan::MakeReplica); `host_threads_per_replica`
  // bounds each engine's own host parallelism (the pool's caller
  // parallelises across replicas).
  ReplicaPool(const ModelPlan& plan, std::size_t replicas,
              std::size_t host_threads_per_replica = 1);

  const ModelPlan& plan() const { return *plan_; }
  std::size_t size() const { return engines_.size(); }
  ipu::Engine& engine(std::size_t i) { return *engines_[i]; }

 private:
  const ModelPlan* plan_;
  std::vector<std::unique_ptr<ipu::Engine>> engines_;
};

// Result of one capacity search, with its compile-reuse accounting.
struct CapacityProbe {
  // Largest K such that the forward graph still compiles on a
  // (arch.num_tiles / K)-tile slice; 0 when the model does not even fit
  // the whole device.
  std::size_t replicas = 0;
  // Distinct tile-slice compiles the search performed. Integer division
  // makes many K values share one slice size (num_tiles / K), so this is
  // strictly less than the number of fits() queries.
  std::size_t probe_compiles = 0;
  // fits() queries answered from an already-compiled slice, including the
  // final re-validation of the returned capacity. Deterministic for a given
  // (arch, cap): derived from the search sequence itself, never from the
  // state of a shared --cache-dir (so cold and warm runs report identical
  // JSON).
  std::size_t probe_cache_hits = 0;
};

// Probes the replica capacity with timing-only plans (opts.execute /
// num_tiles / tracer are overridden per probe) via doubling + binary
// search. Slices are compiled at most once each: repeats are served from
// opts.cache when set (sharing artifacts with the later serving-plan
// build), or from a probe-local in-memory cache otherwise. `cap` bounds
// the search.
CapacityProbe ProbeMaxReplicas(const nn::ForwardSpec& spec,
                               const ipu::IpuArch& arch,
                               const PlanOptions& opts, std::size_t cap = 256);

}  // namespace repro::serve
