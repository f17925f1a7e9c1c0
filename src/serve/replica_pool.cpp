#include "serve/replica_pool.h"

#include <algorithm>
#include <map>

#include "ipusim/exe_cache.h"

namespace repro::serve {

ReplicaPool::ReplicaPool(const ModelPlan& plan, std::size_t replicas,
                         std::size_t host_threads_per_replica)
    : plan_(&plan) {
  REPRO_REQUIRE(replicas > 0, "pool needs at least one replica");
  engines_.reserve(replicas);
  for (std::size_t i = 0; i < replicas; ++i) {
    engines_.push_back(plan.MakeReplica(host_threads_per_replica));
  }
}

CapacityProbe ProbeMaxReplicas(const nn::ForwardSpec& spec,
                               const ipu::IpuArch& arch,
                               const PlanOptions& opts, std::size_t cap) {
  REPRO_REQUIRE(cap >= 1, "capacity search cap must be >= 1");
  CapacityProbe result;
  // Probe-local compile cache when the caller did not provide one, so the
  // doubling + binary-search sequence never recompiles a tile-slice size it
  // has already seen (integer division maps many K to the same slice).
  ipu::ExeCache local_cache;
  ipu::ExeCache* cache = opts.cache != nullptr ? opts.cache : &local_cache;
  // Fit results memoized per slice size. The probe counters come from this
  // memo -- a deterministic function of the search sequence -- not from the
  // shared cache's hit statistics, which depend on what earlier processes
  // left in a --cache-dir (cold and warm runs must report identical JSON).
  std::map<std::size_t, bool> fit_of_tiles;
  auto fits = [&](std::size_t k) {
    const std::size_t tiles = arch.num_tiles / k;
    if (tiles < 2) return false;
    auto it = fit_of_tiles.find(tiles);
    if (it != fit_of_tiles.end()) {
      ++result.probe_cache_hits;
      return it->second;
    }
    ++result.probe_compiles;
    PlanOptions probe = opts;
    probe.execute = false;  // memory/timing probe, no storage
    probe.num_tiles = tiles;
    probe.tracer = nullptr;  // probes stay out of the trace
    probe.cache = cache;
    const bool ok = ModelPlan::Build(spec, arch, probe).ok();
    fit_of_tiles.emplace(tiles, ok);
    return ok;
  };
  if (!fits(1)) return result;
  // Doubling phase establishes [lo fits, hi does not]; binary search closes.
  std::size_t lo = 1;
  std::size_t hi = 1;
  while (hi < cap) {
    hi = std::min(cap, hi * 2);
    if (!fits(hi)) break;
    lo = hi;
  }
  if (lo != hi) {
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (fits(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  // Re-validate the chosen capacity. Always answered from the memo (the
  // search already evaluated `lo`), so every successful probe reports at
  // least one cache hit -- the reuse the cache exists to provide.
  REPRO_REQUIRE(fits(lo), "capacity re-validation diverged");
  result.replicas = lo;
  return result;
}

}  // namespace repro::serve
