// IPU-Link inter-chip interconnect model -- the single source of truth for
// the cluster fabric constants and collective cost algebra.
//
// The paper runs on one GC200 of an M2000; its future-work direction (and
// the ROADMAP's top open item) is scaling across chips. The M2000 connects
// its four GC200s -- and IPU-POD racks connect M2000s -- over IPU-Link:
// 320 GB/s of aggregate inter-chip bandwidth per GC200 (paper Table 1) with
// a per-hop synchronisation latency of ~2 us, an order of magnitude above
// the on-chip exchange sync (arch.h exchange_sync_cycles ~ 225 ns). The
// bandwidth/latency split follows the Citadel microbenchmarking report of
// the IPU interconnect (Jia et al., arXiv:1912.03413): link transfers are
// bandwidth-bound past a few KB with a flat per-hop setup cost.
//
// Everything here is a pure function of (config, bytes, topology): costs are
// deterministic doubles on the same virtual clock as the BSP engine, so
// cluster schedules built on them inherit the repo's bitwise-reproducibility
// contract. The M2000 data-parallel training model (DataParallelScaling
// below, bench_multi_ipu), `cluster::ShardPlan` and `cluster::Router` all
// cost their inter-chip steps through it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace repro::ipu {

// Table 1: 320 GB/s inter-chip bandwidth per GC200.
inline constexpr double kIpuLinkBytesPerSec = 320e9;
// Per-hop synchronisation latency of the IPU-Link fabric.
inline constexpr double kIpuLinkLatencySec = 2e-6;

struct LinkFabricConfig {
  std::size_t num_ipus = 4;  // chips on the ring (M2000 = 4)
  double link_bytes_per_sec = kIpuLinkBytesPerSec;
  double link_latency_sec = kIpuLinkLatencySec;
};

// One scheduled transfer of a collective, for tracing and audit: `bytes` is
// the per-link payload of this step, `hops` the link traversals it pays
// latency for, `seconds` its cost on the virtual clock.
struct FabricStep {
  std::string name;
  std::size_t bytes = 0;
  std::size_t hops = 0;
  double seconds = 0.0;
};

// Cost model of a bidirectional ring of IPU-Links (the M2000/POD topology).
// All collectives are the standard ring algorithms; `bytes` is the payload
// per participant unless stated otherwise. A one-chip fabric is free.
class LinkFabric {
 public:
  explicit LinkFabric(LinkFabricConfig config = {});

  const LinkFabricConfig& config() const { return config_; }
  std::size_t numIpus() const { return config_.num_ipus; }

  // Shortest ring distance between two chips.
  std::size_t RingHops(std::size_t src, std::size_t dst) const;

  // One transfer of `bytes` over `hops` links (store-and-forward latency,
  // pipelined bandwidth: the payload crosses each link once).
  double PointToPointSeconds(std::size_t bytes, std::size_t hops = 1) const;

  // Ring allreduce: every byte crosses the links 2(p-1)/p times plus
  // 2(p-1) latency hops (reduce-scatter then allgather).
  double RingAllReduceSeconds(std::size_t bytes) const;
  // One half of the allreduce (the allgather half costs the same):
  // (p-1)/p traversals + (p-1) hops.
  double RingReduceScatterSeconds(std::size_t bytes) const;
  // Pipelined ring reduce to a root (the host-egress pattern: logits leave
  // the cluster through one chip): (p-1)/p traversals + (p-1) hops.
  double RingReduceSeconds(std::size_t bytes) const;
  // Simultaneous pairwise swap between chips at ring distance `distance`
  // (cross-chip butterfly stages pair chip c with chip c ^ 2^j): each
  // partner sends `bytes`, paying the shortest-path hop count in both
  // bandwidth (relay) and latency.
  double PairwiseExchangeSeconds(std::size_t bytes, std::size_t distance) const;

  // Step decompositions of the ring collectives, for the trace spans the
  // benches emit (--trace): 2(p-1) steps of bytes/p for the allreduce,
  // (p-1) steps for the scatter/gather halves.
  std::vector<FabricStep> RingAllReduceSteps(std::size_t bytes) const;
  std::vector<FabricStep> RingReduceScatterSteps(std::size_t bytes) const;
  std::vector<FabricStep> RingAllGatherSteps(std::size_t bytes) const;

 private:
  LinkFabricConfig config_;
};

// Data-parallel training on the M2000 pod -- the paper's future-work
// direction ("scaling to multiple IPUs ... for scalable learning problems").
// Each IPU computes a local step on 1/p of the global batch, then gradients
// are ring-allreduced over the IPU-Links. Compressed layers (butterfly: 16 k
// parameters) cut the allreduce volume by the same ~98.5% as the memory
// footprint, so they scale better than the dense baseline.
struct ScalingPoint {
  std::size_t ipus = 1;
  double step_seconds = 0.0;
  double speedup = 1.0;      // vs 1 IPU
  double efficiency = 1.0;   // speedup / ipus
};

// Scaling of one SGD step at p = 1, 2, 4, ... up to config.num_ipus, whose
// single-IPU compute time is `single_step_seconds` (global batch fixed;
// per-IPU batch shrinks with p, so compute scales ~1/p down to
// `min_step_seconds` of un-shrinkable per-step overhead) and whose gradient
// exchange is `n_params` floats.
std::vector<ScalingPoint> DataParallelScaling(const LinkFabricConfig& config,
                                              double single_step_seconds,
                                              double min_step_seconds,
                                              std::size_t n_params);

}  // namespace repro::ipu
