#include "cluster/router.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/trace.h"

namespace repro::cluster {
namespace {

// SplitMix64 finalizer: the deterministic hash behind the ring and request
// keys (std::hash is implementation-defined, so never used here).
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

HashRing::HashRing(std::size_t vnodes) : vnodes_(vnodes) {
  REPRO_REQUIRE(vnodes_ > 0, "hash ring needs at least one vnode per chip");
}

void HashRing::AddChip(std::size_t chip) {
  if (Contains(chip)) return;
  ring_.reserve(ring_.size() + vnodes_);
  for (std::size_t v = 0; v < vnodes_; ++v) {
    ring_.emplace_back(Mix64((static_cast<std::uint64_t>(chip) << 32) | v),
                       chip);
  }
  std::sort(ring_.begin(), ring_.end());
  ++chip_count_;
}

void HashRing::RemoveChip(std::size_t chip) {
  if (!Contains(chip)) return;
  ring_.erase(std::remove_if(
                  ring_.begin(), ring_.end(),
                  [chip](const auto& p) { return p.second == chip; }),
              ring_.end());
  --chip_count_;
}

bool HashRing::Contains(std::size_t chip) const {
  for (const auto& p : ring_) {
    if (p.second == chip) return true;
  }
  return false;
}

std::size_t HashRing::Route(std::uint64_t key) const {
  REPRO_REQUIRE(!ring_.empty(), "routing on an empty hash ring");
  const std::uint64_t h = Mix64(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const auto& p, std::uint64_t v) { return p.first < v; });
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

const char* PlacementName(Placement p) {
  switch (p) {
    case Placement::kLeastLoaded:
      return "least_loaded";
    case Placement::kConsistentHash:
      return "consistent_hash";
  }
  return "unknown";
}

ClusterMetrics::ClusterMetrics(std::size_t max_batch, std::size_t chips)
    : agg_(max_batch),
      routed_(chips, 0),
      completed_(chips, 0),
      rejected_(chips, 0) {}

std::string ClusterMetrics::ToJson() const {
  // Extend the aggregate ServeMetrics object in place: same percentile and
  // occupancy math, same %.17g doubles, one flat JSON object.
  std::string s = agg_.ToJson();
  REPRO_REQUIRE(!s.empty() && s.back() == '}', "malformed aggregate JSON");
  s.pop_back();
  auto arr = [](const std::vector<std::size_t>& v) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) a += ", ";
      a += std::to_string(v[i]);
    }
    a += "]";
    return a;
  };
  s += ", \"chips\": " + std::to_string(routed_.size());
  s += ", \"final_active_chips\": " + std::to_string(final_active_);
  s += ", \"scale_ups\": " + std::to_string(scale_ups_);
  s += ", \"scale_downs\": " + std::to_string(scale_downs_);
  s += ", \"routed_per_chip\": " + arr(routed_);
  s += ", \"completed_per_chip\": " + arr(completed_);
  s += ", \"rejected_per_chip\": " + arr(rejected_);
  s += "}";
  return s;
}

namespace {

using serve::BatchRun;
using serve::Request;

// The cluster's front door: places each request on a chip (least loaded or
// hash ring), runs the autoscaler on the loop's ticks, and keeps the
// routing view of ClusterMetrics. Its trace vocabulary is one router lane
// (request lifecycles, routing and scaling decisions, batch formation) plus
// a track per chip slot carrying that chip's device runs.
class RoutedDoor final : public serve::FrontDoor {
 public:
  RoutedDoor(const std::vector<serve::ExecutionBackend*>& backends,
             const RouterConfig& cfg, ClusterMetrics& metrics)
      : backends_(backends),
        cfg_(cfg),
        metrics_(metrics),
        outstanding_(backends.size(), 0),
        active_(backends.size(), false),
        ring_(cfg.vnodes) {
    // Active set: everything, or the autoscaler's starting width.
    const std::size_t C = backends.size();
    std::size_t initial = C;
    if (cfg.autoscale.enabled) {
      const std::size_t floor_chips =
          std::max<std::size_t>(cfg.autoscale.min_chips, 1);
      initial = cfg.autoscale.initial_chips > 0
                    ? std::max(cfg.autoscale.initial_chips, floor_chips)
                    : floor_chips;
      initial = std::min({initial, cfg.autoscale.max_chips, C});
      initial = std::max<std::size_t>(initial, 1);
    }
    for (std::size_t c = 0; c < initial; ++c) {
      active_[c] = true;
      ring_.AddChip(c);
    }
    if (cfg.tracer != nullptr) {
      const std::string pname =
          cfg.trace_label.empty() ? "cluster" : cfg.trace_label;
      router_ = &cfg.tracer->track(cfg.trace_pid, 0, pname, "router");
      chip_tracks_.reserve(C);
      for (std::size_t c = 0; c < C; ++c) {
        // The slot's substrate is part of the track name, so the
        // router -> chip dispatch spans read as routing decisions.
        chip_tracks_.push_back(&cfg.tracer->track(
            cfg.trace_pid, 1 + c, pname,
            "chip " + std::to_string(c) + " [" + backends[c]->name() + "]"));
      }
    }
  }

  std::size_t activeChips() const { return ring_.chips(); }

  std::size_t Route(const Request& req, double now) override {
    const std::size_t chip = PickChip(req);
    REPRO_REQUIRE(chip < backends_.size(), "router has no active chip");
    ++outstanding_[chip];
    metrics_.RecordRouted(chip);
    if (router_ != nullptr) {
      // The request lifecycle span opens at the router and closes when the
      // response hop lands back; the routing decision is an instant.
      router_->AsyncBegin("request", "request", now * 1e6, req.id);
      router_->Instant("route", "cluster", now * 1e6,
                       {obs::Arg("request", req.id),
                        obs::Arg("chip", static_cast<std::uint64_t>(chip))});
      cfg_.tracer->Count("cluster.routed");
    }
    return chip;
  }

  void Admitted(std::size_t, const Request&, double) override {
    if (router_ != nullptr) cfg_.tracer->Count("cluster.admitted");
  }

  // Per-shard admission control: the chip's bounded queue load-sheds.
  void Rejected(std::size_t chip, const Request& req, double now) override {
    metrics_.RecordChipRejection(chip);
    --outstanding_[chip];
    if (router_ == nullptr) return;
    router_->Instant("reject", "cluster", now * 1e6,
                     {obs::Arg("request", req.id),
                      obs::Arg("chip", static_cast<std::uint64_t>(chip))});
    router_->AsyncEnd("request", "request", now * 1e6, req.id);
    cfg_.tracer->Count("cluster.rejected");
  }

  void Dispatched(const BatchRun& run) override {
    if (router_ == nullptr) return;
    serve::TraceDispatch(
        *cfg_.tracer, *router_, *chip_tracks_[run.slot],
        backends_[run.slot]->streamProfile(), run, "cluster",
        "cluster.batches",
        {obs::Arg("chip", static_cast<std::uint64_t>(run.slot))},
        {obs::Arg("replica", static_cast<std::uint64_t>(run.replica))});
  }

  void Completed(const BatchRun& run, double now, double done_s) override {
    for (std::size_t i = 0; i < run.requests.size(); ++i) {
      metrics_.RecordChipCompletion(run.slot);
    }
    outstanding_[run.slot] -= run.requests.size();
    if (router_ == nullptr) return;
    serve::TraceAnswers(*cfg_.tracer, *router_, *chip_tracks_[run.slot],
                        "cluster.completed", run, now, done_s);
  }

  // The autoscaler: compares mean outstanding requests per active chip
  // against the policy thresholds and activates the lowest idle chip or
  // drains the highest active one (it stops receiving traffic; its queued
  // and in-flight work completes normally).
  void Tick(double now) override {
    const AutoscalePolicy& p = cfg_.autoscale;
    const std::size_t C = backends_.size();
    const std::size_t active = ring_.chips();
    std::size_t outstanding = 0;
    for (std::size_t c = 0; c < C; ++c) {
      if (active_[c]) outstanding += outstanding_[c];
    }
    const double per =
        static_cast<double>(outstanding) / static_cast<double>(active);
    std::size_t chip = 0;
    if (per > p.up_outstanding_per_chip && active < std::min(p.max_chips, C)) {
      while (active_[chip]) ++chip;
      ring_.AddChip(chip);
      metrics_.RecordScaleUp();
    } else if (per < p.down_outstanding_per_chip &&
               active > std::max<std::size_t>(p.min_chips, 1)) {
      chip = C - 1;
      while (!active_[chip]) --chip;
      ring_.RemoveChip(chip);
      metrics_.RecordScaleDown();
    } else {
      return;
    }
    active_[chip] = !active_[chip];
    if (router_ == nullptr) return;
    const std::string event = active_[chip] ? "scale_up" : "scale_down";
    router_->Instant(event, "cluster", now * 1e6,
                     {obs::Arg("chip", static_cast<std::uint64_t>(chip)),
                      obs::Arg("outstanding_per_chip", per)});
    cfg_.tracer->Count("cluster." + event + "s");
  }

 private:
  std::size_t PickChip(const Request& req) const {
    if (cfg_.placement == Placement::kConsistentHash) {
      return ring_.Route(req.id);
    }
    // Least loaded: fewest outstanding routed requests among active chips,
    // ties to the lowest chip id (the deterministic dispatch order tests
    // pin down).
    std::size_t best = backends_.size();
    std::size_t best_load = std::numeric_limits<std::size_t>::max();
    for (std::size_t c = 0; c < backends_.size(); ++c) {
      if (!active_[c]) continue;
      if (outstanding_[c] < best_load) {
        best = c;
        best_load = outstanding_[c];
      }
    }
    return best;
  }

  const std::vector<serve::ExecutionBackend*>& backends_;
  const RouterConfig& cfg_;
  ClusterMetrics& metrics_;
  std::vector<std::size_t> outstanding_;  // routed, not yet answered
  std::vector<bool> active_;
  HashRing ring_;
  obs::TraceTrack* router_ = nullptr;  // null = tracing off
  std::vector<obs::TraceTrack*> chip_tracks_;
};

}  // namespace

Router::Router(std::vector<serve::ExecutionBackend*> backends,
               RouterConfig config)
    : backends_(std::move(backends)), config_(std::move(config)) {
  REPRO_REQUIRE(!backends_.empty(), "router needs at least one chip slot");
  for (const serve::ExecutionBackend* backend : backends_) {
    REPRO_REQUIRE(backend != nullptr && backend->replicas() > 0,
                  "router chips need live execution backends");
  }
}

Router::Router(std::vector<serve::ReplicaPool*> pools, RouterConfig config)
    : config_(std::move(config)) {
  REPRO_REQUIRE(!pools.empty(), "router needs at least one chip pool");
  for (serve::ReplicaPool* pool : pools) {
    REPRO_REQUIRE(pool != nullptr && pool->size() > 0,
                  "router chips need live replica pools");
    owned_.push_back(
        std::make_unique<serve::IpuBackend>(pool->plan(), pool));
    backends_.push_back(owned_.back().get());
  }
}

template <typename Load>
ClusterResult Router::Run(const Load& load, const Matrix* inputs) {
  ClusterResult res{ClusterMetrics(config_.batch.max_batch, backends_.size()),
                    Matrix()};
  serve::EventLoop loop{
      .slots = {},
      .batch = config_.batch,
      .queue_capacity = config_.queue_capacity,
      .host_threads = config_.host_threads,
      .tick_interval_s = config_.autoscale.enabled
                             ? config_.autoscale.eval_interval_s
                             : std::numeric_limits<double>::infinity()};
  // One fabric hop each way, sized by the request's features and the
  // answer's logits. Chips of one substrate share a breakdown row.
  auto hop = [&](std::size_t floats) {
    return config_.fabric == nullptr
               ? 0.0
               : config_.fabric->PointToPointSeconds(floats * sizeof(float));
  };
  for (serve::ExecutionBackend* b : backends_) {
    loop.slots.push_back({b, hop(b->spec().input), hop(b->spec().classes),
                          res.metrics.aggregate().RegisterBackend(b->name())});
  }
  RoutedDoor door(backends_, config_, res.metrics);
  res.logits = loop.Run(load, inputs, door, res.metrics.aggregate());
  res.metrics.SetFinalActiveChips(door.activeChips());
  return res;
}

ClusterResult Router::RunOpenLoop(const serve::OpenLoopLoad& load,
                                  const Matrix* inputs) {
  return Run(load, inputs);
}

ClusterResult Router::RunClosedLoop(const serve::ClosedLoopLoad& load,
                                    const Matrix* inputs) {
  return Run(load, inputs);
}

}  // namespace repro::cluster
