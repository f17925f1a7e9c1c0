// cluster::Router: the serving front door of a multi-chip IPU cluster.
//
// The router runs the serving event loop (serve/server.h) with one slot
// per chip: each chip's serve::ExecutionBackend (an IPU replica pool or the
// GPU roofline backend) sits behind its own bounded queue and micro-batcher
// (per-shard admission control: a full chip queue load-sheds), and the
// LinkFabric prices the router -> chip request hop and the response hop.
// The router itself only routes. It places every request on a chip:
//
//  * kLeastLoaded  -- fewest outstanding routed requests, ties broken by
//                     lowest chip id (deterministic),
//  * kConsistentHash -- a 64-bit hash ring with virtual nodes, so sticky
//                     keys survive chip add/remove with minimal remapping
//                     (only keys owned by the departing chip move),
//
// and an optional autoscaler, ticked by the loop every interval, activates /
// drains chips between policy bounds and updates the hash ring, so both
// placements see the same active set. ClusterMetrics::ToJson() inherits the
// loop's determinism contract: bitwise identical across REPRO_THREADS.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/link_fabric.h"
#include "linalg/matrix.h"
#include "serve/backend.h"
#include "serve/replica_pool.h"
#include "serve/server.h"

namespace repro::cluster {

// Consistent-hash ring: `vnodes` points per chip on a 64-bit ring, keys
// route to the first point clockwise. Deterministic (SplitMix64 point hash,
// no std::hash) and minimal under membership change: removing a chip only
// remaps the keys that chip owned.
class HashRing {
 public:
  explicit HashRing(std::size_t vnodes = 64);

  void AddChip(std::size_t chip);
  void RemoveChip(std::size_t chip);
  bool Contains(std::size_t chip) const;
  std::size_t chips() const { return chip_count_; }
  bool empty() const { return ring_.empty(); }

  // Chip owning `key`; the ring must be non-empty.
  std::size_t Route(std::uint64_t key) const;

 private:
  std::size_t vnodes_;
  std::size_t chip_count_ = 0;
  // (point hash, chip), sorted; ties resolve to the lower chip id.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
};

enum class Placement { kLeastLoaded, kConsistentHash };

const char* PlacementName(Placement p);

// Occupancy-driven scaling between [min_chips, max_chips]: every
// eval_interval_s of simulated time the router compares mean outstanding
// requests per active chip against the thresholds and activates one more
// chip (scale up) or drains the highest active chip (scale down: it stops
// receiving traffic, in-flight work completes).
struct AutoscalePolicy {
  bool enabled = false;
  std::size_t min_chips = 1;
  std::size_t max_chips = 16;
  // Chips active at t = 0 (clamped to [min_chips, max_chips]); 0 means
  // start at the floor and grow on demand.
  std::size_t initial_chips = 0;
  double eval_interval_s = 1e-3;
  double up_outstanding_per_chip = 16.0;
  double down_outstanding_per_chip = 2.0;
};

struct RouterConfig {
  Placement placement = Placement::kLeastLoaded;
  serve::BatchPolicy batch;
  std::size_t queue_capacity = 256;  // per chip (admission bound)
  std::size_t vnodes = 64;           // consistent-hash points per chip
  AutoscalePolicy autoscale;
  // Fabric for router->chip request and chip->router response hops (one
  // link hop each way; null = free dispatch). Not owned.
  const ipu::LinkFabric* fabric = nullptr;
  // Host workers for the numerics replay (0 defers to REPRO_THREADS).
  // Never affects metrics or traces.
  std::size_t host_threads = 0;
  // Optional trace sink: the router lane (tid 0) carries request lifecycle
  // + routing instants + scale events, each chip a track (tid 1 + chip)
  // with its batch device-run spans. All emission is from the DES loop.
  obs::Tracer* tracer = nullptr;
  std::size_t trace_pid = 0;
  std::string trace_label;
};

// Cluster-wide serving metrics: the aggregate ServeMetrics over all chips
// (same percentile/occupancy math, bitwise-stable JSON) plus the routing
// and scaling view.
class ClusterMetrics {
 public:
  explicit ClusterMetrics(std::size_t max_batch, std::size_t chips);

  serve::ServeMetrics& aggregate() { return agg_; }
  const serve::ServeMetrics& aggregate() const { return agg_; }

  std::size_t admitted() const { return agg_.admitted(); }
  std::size_t rejected() const { return agg_.rejected(); }
  std::size_t completed() const { return agg_.completed(); }
  double qps() const { return agg_.qps(); }

  const std::vector<std::size_t>& routedPerChip() const { return routed_; }
  const std::vector<std::size_t>& completedPerChip() const {
    return completed_;
  }
  const std::vector<std::size_t>& rejectedPerChip() const { return rejected_; }
  std::size_t scaleUps() const { return scale_ups_; }
  std::size_t scaleDowns() const { return scale_downs_; }
  std::size_t finalActiveChips() const { return final_active_; }

  void RecordRouted(std::size_t chip) { ++routed_[chip]; }
  void RecordChipCompletion(std::size_t chip) { ++completed_[chip]; }
  void RecordChipRejection(std::size_t chip) { ++rejected_[chip]; }
  void RecordScaleUp() { ++scale_ups_; }
  void RecordScaleDown() { ++scale_downs_; }
  void SetFinalActiveChips(std::size_t n) { final_active_ = n; }

  // The aggregate ServeMetrics JSON extended with cluster keys
  // (chips, final_active_chips, scale_ups/downs, per-chip arrays). Flat,
  // stable key order, %.17g doubles.
  std::string ToJson() const;

 private:
  serve::ServeMetrics agg_;
  std::vector<std::size_t> routed_;
  std::vector<std::size_t> completed_;
  std::vector<std::size_t> rejected_;
  std::size_t scale_ups_ = 0;
  std::size_t scale_downs_ = 0;
  std::size_t final_active_ = 0;
};

struct ClusterResult {
  ClusterMetrics metrics;
  Matrix logits;  // serve::EventLoop::Run's replayed logits
};

class Router {
 public:
  // One ExecutionBackend per chip slot (not owned; all backends must
  // outlive the router). Slots may differ in substrate, model and service
  // time -- each chip dispatches at its own backend's batchSeconds(), and
  // the metrics JSON carries a per-backend occupancy breakdown.
  Router(std::vector<serve::ExecutionBackend*> backends, RouterConfig config);

  // IPU convenience: wraps each pool in an owned IpuBackend (the
  // historical all-IPU cluster).
  Router(std::vector<serve::ReplicaPool*> pools, RouterConfig config);

  std::size_t numChips() const { return backends_.size(); }
  const serve::ExecutionBackend& backend(std::size_t chip) const {
    return *backends_[chip];
  }

  // Same loads and `inputs` as the single-chip serve::Server.
  ClusterResult RunOpenLoop(const serve::OpenLoopLoad& load,
                            const Matrix* inputs = nullptr);
  ClusterResult RunClosedLoop(const serve::ClosedLoopLoad& load,
                              const Matrix* inputs = nullptr);

 private:
  template <typename Load>
  ClusterResult Run(const Load& load, const Matrix* inputs);

  std::vector<std::unique_ptr<serve::IpuBackend>> owned_;  // pool ctor only
  std::vector<serve::ExecutionBackend*> backends_;
  RouterConfig config_;
};

}  // namespace repro::cluster
