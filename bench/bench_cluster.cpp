// Cluster serving fabric: one logical model served by 2..16 simulated
// GC200s behind cluster::Router.
//
// Three sections, all on the same deterministic virtual clock:
//   1. scaling -- closed-loop sustained QPS at 1/2/4/../chips-max chips
//      (timing-only plans, per-chip ReplicaPools, router dispatch costed
//      through the LinkFabric). Efficiency at C chips = qps(C)/(C*qps(1));
//      --require-efficiency gates the 4-chip point (scripts/check.sh).
//   2. shard -- tensor-parallel ShardPlan of the same model across 4 chips:
//      per-stage and fabric time split, the collective schedule, and the
//      max |logit| deviation from the unsharded plan (bitwise-near).
//   3. router_exec + autoscale -- a small execute cluster whose replayed
//      logits checksum witnesses thread-invariance, and an overloaded open
//      loop driving the occupancy autoscaler up and (on drain) back down.
//
// All --json bytes and --trace bytes are invariant to REPRO_THREADS /
// --host-threads (the DES is single-threaded; replay never touches a
// recorded time).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "cluster/link_fabric.h"
#include "cluster/placer.h"
#include "cluster/router.h"
#include "cluster/shard_plan.h"
#include "core/method.h"
#include "gpusim/gpu_backend.h"
#include "ipusim/arch.h"
#include "nn/export.h"
#include "nn/model.h"
#include "serve/model_plan.h"
#include "serve/replica_pool.h"
#include "serve/server.h"
#include "util/bitops.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

using namespace repro;

namespace {

struct ScalePoint {
  std::size_t chips = 0;
  double qps = 0.0;
  double efficiency = 1.0;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool fast = cli.Fast();
  const std::size_t n = cli.GetInt("n", 256);
  const std::size_t max_batch = cli.GetInt("batch", 16);
  const double delay_s = cli.GetDouble("delay-us", 200.0) * 1e-6;
  const std::size_t chips_max = cli.GetInt("chips-max", 4);
  const std::size_t replicas = cli.GetInt("replicas", 2);
  const std::uint64_t seed = cli.GetInt("seed", 1);
  const std::size_t host_threads = cli.GetInt("host-threads", 0);
  const std::string placement_name =
      cli.GetString("placement", "least_loaded");
  const double require_eff = cli.GetDouble("require-efficiency", 0.0);
  // --backend pins every chip slot's substrate: "ipu" (replica pools, the
  // historical cluster), "gpu" (A30 roofline slots, timing-only), or
  // "auto" (cluster::CostModelPlacer decides per model from the backends'
  // own cost estimates and emits the decision as a "placement" record).
  const std::string backend_mode = cli.GetString("backend", "ipu");
  REPRO_REQUIRE(backend_mode == "ipu" || backend_mode == "gpu" ||
                    backend_mode == "auto",
                "--backend must be ipu, gpu or auto (got '%s')",
                backend_mode.c_str());
  BenchIo io("cluster", cli);
  ipu::ExeCache& cache = io.cache();

  REPRO_REQUIRE(chips_max >= 1 && chips_max <= 16 && IsPow2(chips_max),
                "--chips-max must be a power of two in [1, 16]");
  const cluster::Placement placement =
      placement_name == "consistent_hash"
          ? cluster::Placement::kConsistentHash
          : cluster::Placement::kLeastLoaded;

  obs::Tracer* const tp = io.tracer();

  const ipu::IpuArch arch = ipu::Gc200();
  const ipu::LinkFabric fabric(ipu::LinkFabricConfig{.num_ipus = chips_max});

  core::ShlShape shape;
  shape.input = n;
  shape.hidden = n;

  PrintBanner("Cluster serving fabric: one model on 1..N GC200s over "
              "IPU-Link");
  std::printf("n = %zu, max_batch = %zu, replicas/chip = %zu, placement = %s, "
              "link = %.0f GB/s + %.1f us/hop\n\n",
              n, max_batch, replicas, cluster::PlacementName(placement),
              fabric.config().link_bytes_per_sec * 1e-9,
              fabric.config().link_latency_sec * 1e6);

  // --- Section 1: closed-loop QPS scaling (timing-only plans) -------------
  Table t({"Method", "chips", "clients", "QPS", "speedup", "efficiency"});
  double butterfly_eff4 = 1.0;
  for (core::Method method :
       {core::Method::kBaseline, core::Method::kButterfly}) {
    Rng rng(seed);
    nn::Sequential model = nn::BuildShl(method, shape, rng);
    nn::ForwardSpec spec = nn::ExportForward(model);
    serve::PlanOptions popts{.max_batch = max_batch, .execute = false};
    popts.cache = &cache;
    auto plan = serve::ModelPlan::Build(spec, arch, popts);
    REPRO_REQUIRE(plan.ok(), "timing plan for %s: %s",
                  core::MethodName(method), plan.status().message().c_str());

    // Substrate for this model's chip slots. The deployed slots share the
    // cluster's per-chip replica budget; the placer's decision, though,
    // compares what a whole device of each kind can serve (IPU capacity
    // probe vs the GPU's HBM/SM-concurrency capacity) -- the substrate
    // choice is a per-device economics question, not a budget question.
    gpu::GpuBackendOptions gopts;
    gopts.max_batch = max_batch;
    gopts.replica_cap = replicas;
    bool use_gpu = backend_mode == "gpu";
    if (backend_mode == "auto") {
      serve::PlanOptions spopts{.max_batch = max_batch, .execute = false};
      spopts.cache = &cache;
      const serve::CapacityProbe cp =
          serve::ProbeMaxReplicas(spec, arch, spopts, 256);
      REPRO_REQUIRE(cp.replicas > 0, "%s fits no IPU replica at n=%zu",
                    core::MethodName(method), n);
      serve::PlanOptions scopts = spopts;
      scopts.num_tiles = arch.num_tiles / cp.replicas;
      scopts.streaming = true;
      auto splan = serve::ModelPlan::Build(spec, arch, scopts);
      REPRO_REQUIRE(splan.ok(), "placer plan for %s: %s",
                    core::MethodName(method),
                    splan.status().message().c_str());
      const serve::IpuBackend ipu_cost(*splan.value(), nullptr, cp.replicas);
      gpu::GpuBackendOptions score_gopts;
      score_gopts.max_batch = max_batch;
      const gpu::GpuBackend gpu_cost(spec, gpu::A30(), score_gopts);
      const cluster::CostModelPlacer placer;
      const cluster::PlacementDecision d =
          placer.Decide(ipu_cost, gpu_cost, core::MethodName(method), n);
      use_gpu = d.winner == "gpu";
      io.Add("{\"section\": \"placement\", \"decision\": " + d.ToJson() +
             "}");
      std::printf("placer: %-10s n=%zu -> %s (margin %.2fx)\n",
                  core::MethodName(method), n, d.winner.c_str(), d.margin);
    }
    const char* slot_backend = use_gpu ? "gpu" : "ipu";

    std::vector<ScalePoint> points;
    for (std::size_t chips = 1; chips <= chips_max; chips *= 2) {
      std::vector<std::unique_ptr<serve::ReplicaPool>> pools;
      std::vector<std::unique_ptr<serve::IpuBackend>> ipu_slots;
      std::vector<std::unique_ptr<gpu::GpuBackend>> gpu_slots;
      std::vector<serve::ExecutionBackend*> slots;
      for (std::size_t c = 0; c < chips; ++c) {
        if (use_gpu) {
          gpu_slots.push_back(
              std::make_unique<gpu::GpuBackend>(spec, gpu::A30(), gopts));
          slots.push_back(gpu_slots.back().get());
        } else {
          pools.push_back(
              std::make_unique<serve::ReplicaPool>(*plan.value(), replicas));
          ipu_slots.push_back(std::make_unique<serve::IpuBackend>(
              *plan.value(), pools.back().get()));
          slots.push_back(ipu_slots.back().get());
        }
      }
      cluster::RouterConfig rc;
      rc.placement = placement;
      rc.batch = serve::BatchPolicy{.max_batch = max_batch,
                                    .max_delay_s = delay_s};
      rc.fabric = &fabric;
      rc.host_threads = host_threads;
      const std::size_t clients = chips * replicas * max_batch;
      rc.queue_capacity = clients;
      cluster::Router router(slots, rc);
      const std::size_t requests = clients * (fast ? 4 : 8);
      cluster::ClusterResult res = router.RunClosedLoop(
          serve::ClosedLoopLoad{.clients = clients,
                                .requests = requests,
                                .think_s = 0.0});
      ScalePoint pt;
      pt.chips = chips;
      pt.qps = res.metrics.qps();
      pt.efficiency =
          points.empty()
              ? 1.0
              : pt.qps / (static_cast<double>(chips) * points[0].qps);
      points.push_back(pt);
      if (method == core::Method::kButterfly && chips == 4) {
        butterfly_eff4 = pt.efficiency;
      }
      io.Add(std::string("{\"section\": \"scaling\", \"method\": \"") +
               core::MethodName(method) +
               "\", \"backend\": \"" + slot_backend +
               "\", \"placement\": \"" + cluster::PlacementName(placement) +
               "\", \"n\": " + std::to_string(n) +
               ", \"chips\": " + std::to_string(chips) +
               ", \"replicas_per_chip\": " + std::to_string(replicas) +
               ", \"clients\": " + std::to_string(clients) +
               ", \"cluster_qps\": " + Num(pt.qps) +
               ", \"scaling_efficiency\": " + Num(pt.efficiency) +
               ", \"metrics\": " + res.metrics.ToJson() + "}");
      t.AddRow({core::MethodName(method),
                Table::Int(static_cast<long long>(chips)),
                Table::Int(static_cast<long long>(clients)),
                Table::Num(pt.qps, 0),
                Table::Num(pt.qps / points[0].qps, 2),
                Table::Num(100.0 * pt.efficiency, 0) + "%"});
    }
  }
  t.Print();

  // --- Section 2: tensor-parallel shard plans (execute) -------------------
  // Sections 2 and 3 exercise execute plans and the numerics replay, which
  // only the IPU substrate provides (GpuBackend is timing-only).
  if (backend_mode != "ipu") {
    std::printf("\nsections 2-3 (shard + execute cluster) need the IPU "
                "substrate; skipped under --backend %s\n",
                backend_mode.c_str());
    io.Finish();
    if (require_eff > 0.0 && chips_max >= 4 && butterfly_eff4 < require_eff) {
      std::printf("FAIL: butterfly efficiency at 4 chips %.3f < required "
                  "%.3f\n",
                  butterfly_eff4, require_eff);
      return 1;
    }
    return 0;
  }
  const std::size_t shard_chips = std::min<std::size_t>(
      4, std::max<std::size_t>(2, chips_max));
  std::printf("\nTensor-parallel shard across %zu chips (execute plans):\n",
              shard_chips);
  Table ts({"Method", "stage A [us]", "fabric [us]", "stage B [us]",
            "total [us]", "unsharded [us]", "max |d logit|"});
  for (core::Method method :
       {core::Method::kBaseline, core::Method::kButterfly}) {
    Rng rng(seed);
    nn::Sequential model = nn::BuildShl(method, shape, rng);
    nn::ForwardSpec spec = nn::ExportForward(model);

    serve::PlanOptions uopts{.max_batch = max_batch, .execute = true};
    uopts.cache = &cache;
    uopts.tracer = tp;
    uopts.trace_pid = method == core::Method::kBaseline ? 10 : 13;
    uopts.trace_label =
        std::string("plan:") + core::MethodName(method);
    auto unsharded = serve::ModelPlan::Build(spec, arch, uopts);
    REPRO_REQUIRE(unsharded.ok(), "unsharded plan: %s",
                  unsharded.status().message().c_str());

    cluster::ShardOptions sopts;
    sopts.num_chips = shard_chips;
    sopts.max_batch = max_batch;
    sopts.fabric = fabric.config();
    sopts.cache = &cache;
    sopts.tracer = tp;
    sopts.trace_pid = method == core::Method::kBaseline ? 11 : 14;
    sopts.trace_label =
        std::string("shard:") + core::MethodName(method);
    auto sharded = cluster::ShardPlan::Build(spec, arch, sopts);
    REPRO_REQUIRE(sharded.ok(), "shard plan: %s",
                  sharded.status().message().c_str());
    const cluster::ShardPlan& sp = *sharded.value();

    Matrix inputs(max_batch, n);
    Rng in_rng(seed + 7);
    in_rng.FillUniform(inputs.data(), inputs.rows() * inputs.cols(), -1.0f,
                       1.0f);
    auto replica = unsharded.value()->MakeReplica();
    Matrix ref = unsharded.value()->RunBatch(*replica, inputs);
    Matrix got = sp.RunBatch(inputs);
    double max_diff = 0.0;
    for (std::size_t i = 0; i < ref.rows(); ++i) {
      for (std::size_t j = 0; j < ref.cols(); ++j) {
        max_diff = std::max(
            max_diff, std::abs(static_cast<double>(ref(i, j) - got(i, j))));
      }
    }

    std::string steps = "[";
    for (std::size_t i = 0; i < sp.fabricSteps().size(); ++i) {
      const ipu::FabricStep& s = sp.fabricSteps()[i];
      if (i > 0) steps += ", ";
      steps += "{\"step\": \"" + s.name +
               "\", \"bytes\": " + std::to_string(s.bytes) +
               ", \"hops\": " + std::to_string(s.hops) +
               ", \"seconds\": " + Num(s.seconds) + "}";
    }
    steps += "]";
    io.Add(std::string("{\"section\": \"shard\", \"method\": \"") +
             core::MethodName(method) +
             "\", \"n\": " + std::to_string(n) +
             ", \"chips\": " + std::to_string(shard_chips) +
             ", \"stage_a_us\": " + Num(sp.stageASeconds() * 1e6) +
             ", \"fabric_us\": " + Num(sp.fabricSeconds() * 1e6) +
             ", \"stage_b_us\": " + Num(sp.stageBSeconds() * 1e6) +
             ", \"batch_us\": " + Num(sp.batchSeconds() * 1e6) +
             ", \"unsharded_batch_us\": " +
             Num(unsharded.value()->batchSeconds() * 1e6) +
             ", \"parity_max_abs_diff\": " + Num(max_diff) +
             ", \"fabric_steps\": " + steps + "}");
    ts.AddRow({core::MethodName(method),
               Table::Num(sp.stageASeconds() * 1e6, 1),
               Table::Num(sp.fabricSeconds() * 1e6, 2),
               Table::Num(sp.stageBSeconds() * 1e6, 1),
               Table::Num(sp.batchSeconds() * 1e6, 1),
               Table::Num(unsharded.value()->batchSeconds() * 1e6, 1),
               Table::Num(max_diff, 6)});
  }
  ts.Print();

  // --- Section 3: execute cluster (replay determinism) + autoscaler -------
  {
    Rng rng(seed);
    nn::Sequential model =
        nn::BuildShl(core::Method::kButterfly, shape, rng);
    nn::ForwardSpec spec = nn::ExportForward(model);
    serve::PlanOptions eopts{.max_batch = max_batch, .execute = true};
    eopts.cache = &cache;
    auto plan = serve::ModelPlan::Build(spec, arch, eopts);
    REPRO_REQUIRE(plan.ok(), "execute plan: %s",
                  plan.status().message().c_str());

    const std::size_t exec_chips = std::min<std::size_t>(2, chips_max);
    std::vector<std::unique_ptr<serve::ReplicaPool>> pools;
    std::vector<serve::ReplicaPool*> pool_ptrs;
    for (std::size_t c = 0; c < exec_chips; ++c) {
      pools.push_back(
          std::make_unique<serve::ReplicaPool>(*plan.value(), 1));
      pool_ptrs.push_back(pools.back().get());
    }
    Matrix inputs(max_batch, n);
    Rng in_rng(seed + 11);
    in_rng.FillUniform(inputs.data(), inputs.rows() * inputs.cols(), -1.0f,
                       1.0f);

    cluster::RouterConfig rc;
    rc.placement = placement;
    rc.batch = serve::BatchPolicy{.max_batch = max_batch,
                                  .max_delay_s = delay_s};
    rc.fabric = &fabric;
    rc.host_threads = host_threads;
    rc.queue_capacity = exec_chips * max_batch;
    rc.tracer = tp;
    rc.trace_pid = 2;
    rc.trace_label = "cluster:exec";
    cluster::Router router(pool_ptrs, rc);
    const std::size_t requests = (fast ? 4 : 8) * exec_chips * max_batch;
    cluster::ClusterResult res = router.RunClosedLoop(
        serve::ClosedLoopLoad{.clients = exec_chips * max_batch,
                              .requests = requests,
                              .think_s = 0.0},
        &inputs);
    // Fixed-order checksum over the replayed logits: any thread-dependent
    // replay would move it; scripts/check.sh holds the bytes equal across
    // REPRO_THREADS.
    double checksum = 0.0;
    for (std::size_t i = 0; i < res.logits.rows(); ++i) {
      for (std::size_t j = 0; j < res.logits.cols(); ++j) {
        checksum += std::abs(static_cast<double>(res.logits(i, j)));
      }
    }
    io.Add(std::string("{\"section\": \"router_exec\", \"chips\": ") +
             std::to_string(exec_chips) +
             ", \"requests\": " + std::to_string(requests) +
             ", \"logits_checksum\": " + Num(checksum) +
             ", \"metrics\": " + res.metrics.ToJson() + "}");
    std::printf("\nexecute cluster: %zu chips, %zu requests, logits checksum "
                "%.6f\n",
                exec_chips, requests, checksum);

    // Autoscaler: overload an initially-1-chip cluster, watch it grow.
    const double service_s = plan.value()->batchSeconds();
    cluster::RouterConfig ac = rc;
    ac.tracer = tp;
    ac.trace_pid = 3;
    ac.trace_label = "cluster:autoscale";
    ac.queue_capacity = 256;
    ac.autoscale.enabled = true;
    ac.autoscale.min_chips = 1;
    ac.autoscale.max_chips = chips_max;
    ac.autoscale.eval_interval_s = 4.0 * service_s;
    ac.autoscale.up_outstanding_per_chip = 1.5 * max_batch;
    ac.autoscale.down_outstanding_per_chip = 0.25 * max_batch;
    std::vector<std::unique_ptr<serve::ReplicaPool>> apools;
    std::vector<serve::ReplicaPool*> apool_ptrs;
    for (std::size_t c = 0; c < chips_max; ++c) {
      apools.push_back(
          std::make_unique<serve::ReplicaPool>(*plan.value(), 1));
      apool_ptrs.push_back(apools.back().get());
    }
    cluster::Router arouter(apool_ptrs, ac);
    const double offered =
        2.0 * static_cast<double>(chips_max * max_batch) / service_s;
    const std::size_t arequests = (fast ? 400 : 1200);
    cluster::ClusterResult ares = arouter.RunOpenLoop(
        serve::OpenLoopLoad{.qps = offered,
                            .requests = arequests,
                            .seed = seed});
    io.Add(std::string("{\"section\": \"autoscale\", \"chips\": ") +
             std::to_string(chips_max) +
             ", \"offered_qps\": " + Num(offered) +
             ", \"scale_up_events\": " +
             std::to_string(ares.metrics.scaleUps()) +
             ", \"scale_down_events\": " +
             std::to_string(ares.metrics.scaleDowns()) +
             ", \"final_active_chips\": " +
             std::to_string(ares.metrics.finalActiveChips()) +
             ", \"metrics\": " + ares.metrics.ToJson() + "}");
    std::printf("autoscale: offered %.0f QPS -> %zu scale-ups, %zu "
                "scale-downs, %zu/%zu chips active at end\n",
                offered, ares.metrics.scaleUps(), ares.metrics.scaleDowns(),
                ares.metrics.finalActiveChips(), chips_max);
  }

  std::printf("\nbutterfly scaling efficiency at 4 chips: %.0f%%\n",
              100.0 * butterfly_eff4);
  io.Finish();
  if (require_eff > 0.0 && chips_max >= 4 &&
      butterfly_eff4 < require_eff) {
    std::printf("FAIL: butterfly efficiency at 4 chips %.3f < required "
                "%.3f\n",
                butterfly_eff4, require_eff);
    return 1;
  }
  return 0;
}
