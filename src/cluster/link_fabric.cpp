#include "cluster/link_fabric.h"

#include <algorithm>

#include "util/bitops.h"
#include "util/error.h"

namespace repro::ipu {

LinkFabric::LinkFabric(LinkFabricConfig config) : config_(config) {
  REPRO_REQUIRE(config_.num_ipus >= 1, "empty fabric");
  REPRO_REQUIRE(config_.link_bytes_per_sec > 0.0,
                "non-positive link bandwidth");
  REPRO_REQUIRE(config_.link_latency_sec >= 0.0, "negative link latency");
}

std::size_t LinkFabric::RingHops(std::size_t src, std::size_t dst) const {
  const std::size_t p = config_.num_ipus;
  REPRO_REQUIRE(src < p && dst < p, "chip out of range");
  const std::size_t fwd = dst >= src ? dst - src : dst + p - src;
  return std::min(fwd, p - fwd);
}

double LinkFabric::PointToPointSeconds(std::size_t bytes,
                                       std::size_t hops) const {
  if (bytes == 0 || hops == 0) return 0.0;
  return static_cast<double>(bytes) / config_.link_bytes_per_sec +
         static_cast<double>(hops) * config_.link_latency_sec;
}

double LinkFabric::RingAllReduceSeconds(std::size_t bytes) const {
  if (config_.num_ipus == 1 || bytes == 0) return 0.0;
  const double p = static_cast<double>(config_.num_ipus);
  const double volume = 2.0 * (p - 1.0) / p * static_cast<double>(bytes);
  return volume / config_.link_bytes_per_sec +
         2.0 * (p - 1.0) * config_.link_latency_sec;
}

double LinkFabric::RingReduceScatterSeconds(std::size_t bytes) const {
  if (config_.num_ipus == 1 || bytes == 0) return 0.0;
  const double p = static_cast<double>(config_.num_ipus);
  const double volume = (p - 1.0) / p * static_cast<double>(bytes);
  return volume / config_.link_bytes_per_sec +
         (p - 1.0) * config_.link_latency_sec;
}

double LinkFabric::RingReduceSeconds(std::size_t bytes) const {
  return RingReduceScatterSeconds(bytes);
}

double LinkFabric::PairwiseExchangeSeconds(std::size_t bytes,
                                           std::size_t distance) const {
  if (config_.num_ipus == 1 || bytes == 0) return 0.0;
  const std::size_t hops = RingHops(0, distance % config_.num_ipus);
  if (hops == 0) return 0.0;
  // The payload is relayed through `hops` links, so it occupies the wire
  // once per hop; every chip pair swaps simultaneously on disjoint
  // shortest paths of the bidirectional ring.
  return static_cast<double>(hops) * static_cast<double>(bytes) /
             config_.link_bytes_per_sec +
         static_cast<double>(hops) * config_.link_latency_sec;
}

namespace {

std::vector<FabricStep> RingPhaseSteps(const LinkFabricConfig& cfg,
                                       std::size_t bytes, const char* phase) {
  std::vector<FabricStep> steps;
  const std::size_t p = cfg.num_ipus;
  if (p == 1 || bytes == 0) return steps;
  // Each of the p-1 pipeline steps moves one 1/p chunk per link.
  const double chunk = static_cast<double>(bytes) / static_cast<double>(p);
  const std::size_t chunk_bytes = CeilDiv(bytes, p);
  steps.reserve(p - 1);
  for (std::size_t s = 0; s < p - 1; ++s) {
    FabricStep step;
    step.name = std::string(phase) + "[" + std::to_string(s) + "]";
    step.bytes = chunk_bytes;
    step.hops = 1;
    step.seconds = chunk / cfg.link_bytes_per_sec + cfg.link_latency_sec;
    steps.push_back(std::move(step));
  }
  return steps;
}

}  // namespace

std::vector<FabricStep> LinkFabric::RingReduceScatterSteps(
    std::size_t bytes) const {
  return RingPhaseSteps(config_, bytes, "reduce_scatter");
}

std::vector<FabricStep> LinkFabric::RingAllGatherSteps(
    std::size_t bytes) const {
  return RingPhaseSteps(config_, bytes, "all_gather");
}

std::vector<FabricStep> LinkFabric::RingAllReduceSteps(
    std::size_t bytes) const {
  std::vector<FabricStep> steps = RingReduceScatterSteps(bytes);
  std::vector<FabricStep> gather = RingAllGatherSteps(bytes);
  steps.insert(steps.end(), gather.begin(), gather.end());
  return steps;
}

std::vector<ScalingPoint> DataParallelScaling(const LinkFabricConfig& config,
                                              double single_step_seconds,
                                              double min_step_seconds,
                                              std::size_t n_params) {
  REPRO_REQUIRE(single_step_seconds > 0.0, "non-positive step time");
  std::vector<ScalingPoint> out;
  const double compute_part =
      std::max(0.0, single_step_seconds - min_step_seconds);
  for (std::size_t p = 1; p <= config.num_ipus; p *= 2) {
    LinkFabricConfig sub = config;
    sub.num_ipus = p;
    ScalingPoint pt;
    pt.ipus = p;
    pt.step_seconds =
        min_step_seconds + compute_part / static_cast<double>(p) +
        LinkFabric(sub).RingAllReduceSeconds(n_params * sizeof(float));
    pt.speedup = single_step_seconds / pt.step_seconds;
    pt.efficiency = pt.speedup / static_cast<double>(p);
    out.push_back(pt);
  }
  return out;
}

}  // namespace repro::ipu
