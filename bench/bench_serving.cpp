// Serving-capacity comparison: dense vs butterfly vs pixelfly at a fixed
// per-tile memory budget (the paper's memory argument turned into a serving
// claim). For each method the bench
//   1. exports the SHL forward pass and probes ProbeMaxReplicas -- how many
//      timing-plan replicas of the compiled graph fit on one simulated GC200
//      when the device is carved into equal tile slices;
//   2. runs a closed-loop load (enough clients to keep every replica's batch
//      slots full) to measure sustained QPS at that replica count;
//   3. runs an open-loop Poisson load at a fraction of the sustained rate to
//      measure p50/p95/p99 latency and load shedding under headroom.
// Arrivals are deterministic (seeded Rng), so --json output is reproducible
// bit for bit for a fixed flag set.
//
// --backend picks the serving substrate:
//   ipu   (default) the flow above, byte-identical to the pre-backend
//         bench (scripts/check.sh holds it to the golden files);
//   gpu   the same models priced through gpu::GpuBackend (A30 roofline,
//         captured-graph serving) behind the identical DES scheduler;
//   auto  cluster::CostModelPlacer decides per (method, n) -- the paper's
//         IPU-vs-GPU crossover as a live placement decision -- and a
//         2-slot heterogeneous router serves one model from both
//         substrates at once (chip tracks carry the backend name).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "cluster/placer.h"
#include "cluster/router.h"
#include "core/device_time.h"
#include "core/method.h"
#include "gpusim/gpu_backend.h"
#include "ipusim/arch.h"
#include "nn/export.h"
#include "nn/model.h"
#include "serve/model_plan.h"
#include "serve/replica_pool.h"
#include "serve/server.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

using namespace repro;

namespace {

struct MethodResult {
  core::Method method = core::Method::kBaseline;
  const char* ingress = "stream";  // "stream" (double-buffered) or "copy"
  std::size_t replicas = 0;
  std::size_t tiles_per_replica = 0;
  std::size_t probe_compiles = 0;
  std::size_t probe_cache_hits = 0;
  double service_us = 0.0;
  double closed_qps = 0.0;
  serve::ServeMetrics closed{1};
  serve::ServeMetrics open{1};
  double offered_qps = 0.0;
  ipu::GraphCounts counts;
};

std::string Record(const MethodResult& r, const char* mode,
                   const serve::ServeMetrics& m, double offered_qps,
                   std::size_t n) {
  char head[512];
  std::snprintf(head, sizeof head,
                "{\"method\": \"%s\", \"ingress\": \"%s\", \"mode\": \"%s\", "
                "\"n\": %zu, "
                "\"replicas\": %zu, \"tiles_per_replica\": %zu, "
                "\"probe_compiles\": %zu, \"probe_cache_hits\": %zu, "
                "\"service_us\": %.17g, \"offered_qps\": %.17g, ",
                core::MethodName(r.method), r.ingress, mode, n, r.replicas,
                r.tiles_per_replica, r.probe_compiles, r.probe_cache_hits,
                r.service_us, offered_qps);
  return std::string(head) + "\"counts\": " + r.counts.ToJson() +
         ", \"metrics\": " + m.ToJson() + "}";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const core::Method kServeMethods[] = {core::Method::kBaseline,
                                      core::Method::kButterfly,
                                      core::Method::kPixelfly};

nn::ForwardSpec BuildSpec(core::Method method, std::size_t n,
                          std::uint64_t seed, nn::Sequential& model_out) {
  core::ShlShape shape;
  shape.input = n;
  shape.hidden = n;
  shape.pixelfly = core::ScaledPixelflyConfig(n);
  Rng rng(seed);
  model_out = nn::BuildShl(method, shape, rng);
  return nn::ExportForward(model_out);
}

// --backend gpu: the same three models served from the A30 cost model. The
// DES scheduler, batcher and metrics are the ones the IPU path uses; only
// the ExecutionBackend differs (timing-only, so no numerics replay).
int RunGpuMode(Cli& cli, BenchIo& io) {
  const bool fast = cli.Fast();
  const std::size_t n = cli.GetInt("n", 1024);
  const std::size_t max_batch = cli.GetInt("batch", 32);
  const double delay_s = cli.GetDouble("delay-us", 200.0) * 1e-6;
  const std::size_t cap = cli.GetInt("cap", 256);
  const double rate_frac = cli.GetDouble("rate-frac", 0.7);
  const std::uint64_t seed = cli.GetInt("seed", 1);
  obs::Tracer* const tp = io.tracer();

  PrintBanner("Serving capacity on the A30 cost model: captured-graph "
              "replicas behind the same DES scheduler");
  std::printf("n = %zu, max_batch = %zu, batching delay = %.0f us, replica "
              "cap = %zu\n\n",
              n, max_batch, delay_s * 1e6, cap);

  Table t({"Method", "replicas", "mem cap", "SM conc", "service [us]",
           "closed QPS", "open p50 [us]", "open p99 [us]"});
  std::size_t mi = 0;
  for (core::Method method : kServeMethods) {
    ++mi;
    nn::Sequential model;
    const nn::ForwardSpec spec = BuildSpec(method, n, seed, model);
    gpu::GpuBackendOptions gopts;
    gopts.max_batch = max_batch;
    gopts.replica_cap = cap;
    gpu::GpuBackend backend(spec, gpu::A30(), gopts);

    serve::ServerConfig cfg;
    cfg.batch = serve::BatchPolicy{.max_batch = max_batch,
                                   .max_delay_s = delay_s};
    cfg.tracer = tp;
    const std::size_t clients = 2 * backend.replicas() * max_batch;
    cfg.queue_capacity = clients;
    const std::size_t requests =
        cli.GetInt("requests", clients * (fast ? 4 : 16));

    serve::ServeMetrics closed{1}, open{1};
    {
      cfg.trace_pid = 2 * mi;
      cfg.trace_label = std::string("serve:gpu:") + core::MethodName(method) +
                        ":closed";
      serve::Server server(backend, cfg);
      closed = server
                   .RunClosedLoop(serve::ClosedLoopLoad{.clients = clients,
                                                        .requests = requests,
                                                        .think_s = 0.0})
                   .metrics;
    }
    const double offered = rate_frac * closed.qps();
    {
      cfg.trace_pid = 2 * mi + 1;
      cfg.trace_label = std::string("serve:gpu:") + core::MethodName(method) +
                        ":open";
      serve::Server server(backend, cfg);
      open = server
                 .RunOpenLoop(serve::OpenLoopLoad{.qps = offered,
                                                  .requests = requests,
                                                  .seed = seed})
                 .metrics;
    }

    auto rec = [&](const char* mode, const serve::ServeMetrics& m,
                   double offered_qps) {
      io.Add(std::string("{\"method\": \"") + core::MethodName(method) +
             "\", \"backend\": \"gpu\", \"mode\": \"" + mode +
             "\", \"n\": " + std::to_string(n) +
             ", \"replicas\": " + std::to_string(backend.replicas()) +
             ", \"mem_replicas\": " + std::to_string(backend.memReplicas()) +
             ", \"concurrent_batches\": " +
             std::to_string(backend.concurrentBatches()) +
             ", \"kernels\": " + std::to_string(backend.forwardCost().kernels) +
             ", \"weight_bytes\": " + std::to_string(backend.weightBytes()) +
             ", \"service_us\": " + Num(backend.batchSeconds() * 1e6) +
             ", \"offered_qps\": " + Num(offered_qps) +
             ", \"metrics\": " + m.ToJson() + "}");
    };
    rec("closed", closed, 0.0);
    rec("open", open, offered);
    t.AddRow({core::MethodName(method),
              Table::Int(static_cast<long long>(backend.replicas())),
              Table::Int(static_cast<long long>(backend.memReplicas())),
              Table::Int(static_cast<long long>(backend.concurrentBatches())),
              Table::Num(backend.batchSeconds() * 1e6, 1),
              Table::Num(closed.qps(), 0),
              Table::Num(open.LatencyPercentile(50.0) * 1e6, 1),
              Table::Num(open.LatencyPercentile(99.0) * 1e6, 1)});
  }
  t.Print();
  std::printf(
      "\nDense batches span a few SM tiles (many concurrent batches); the\n"
      "factorized layers' batched small-GEMM stages own the whole device,\n"
      "so their GPU serving capacity collapses to one batch in flight.\n");
  io.Finish();
  return 0;
}

// --backend auto: the paper's crossover as a placement decision. For each
// (method, n) the placer scores an IPU deployment (capacity probe + timing
// plan) against the A30 cost model and picks the substrate with more QPS
// per hourly dollar; then a 2-slot heterogeneous router serves the --n
// butterfly model from both substrates at once, so the routing decision is
// visible as a trace span per chip track ("chip 0 [ipu]" / "chip 1 [gpu]").
int RunAutoMode(Cli& cli, BenchIo& io) {
  const bool fast = cli.Fast();
  const std::size_t n = cli.GetInt("n", 1024);
  const std::size_t max_batch = cli.GetInt("batch", 32);
  const double delay_s = cli.GetDouble("delay-us", 200.0) * 1e-6;
  const std::size_t cap = cli.GetInt("cap", 256);
  const std::uint64_t seed = cli.GetInt("seed", 1);
  const std::size_t host_threads = cli.GetInt("host-threads", 0);
  const bool require_crossover = cli.Has("require-crossover");
  obs::Tracer* const tp = io.tracer();
  const ipu::IpuArch arch = ipu::Gc200();
  const cluster::CostModelPlacer placer;

  PrintBanner("Cost-model placement: IPU replica pools vs A30 "
              "captured-graph serving, per (method, n)");
  std::printf("max_batch = %zu, replica cap = %zu, rates: IPU $%.2f/h, "
              "GPU $%.2f/h\n\n",
              max_batch, cap, placer.config().ipu_usd_per_hour,
              placer.config().gpu_usd_per_hour);

  const std::size_t sweep[] = {256, 512, 1024};
  Table t({"Method", "n", "IPU QPS/dev", "GPU QPS/dev", "IPU QPS/$",
           "GPU QPS/$", "winner", "margin"});
  bool crossover_ok = true;
  for (const std::size_t ni : sweep) {
    for (core::Method method : kServeMethods) {
      nn::Sequential model;
      const nn::ForwardSpec spec = BuildSpec(method, ni, seed, model);

      serve::PlanOptions popts{.max_batch = max_batch, .execute = false};
      popts.cache = &io.cache();
      const serve::CapacityProbe cp =
          serve::ProbeMaxReplicas(spec, arch, popts, cap);
      if (cp.replicas == 0) {
        std::printf("%-10s n=%zu fits no IPU replica, skipping\n",
                    core::MethodName(method), ni);
        continue;
      }
      serve::PlanOptions opts = popts;
      opts.num_tiles = arch.num_tiles / cp.replicas;
      opts.streaming = true;
      auto plan = serve::ModelPlan::Build(spec, arch, opts);
      REPRO_REQUIRE(plan.ok(), "timing plan for %s: %s",
                    core::MethodName(method),
                    plan.status().message().c_str());
      const serve::IpuBackend ipu_b(*plan.value(), nullptr, cp.replicas);

      gpu::GpuBackendOptions gopts;
      gopts.max_batch = max_batch;
      gopts.replica_cap = cap;
      const gpu::GpuBackend gpu_b(spec, gpu::A30(), gopts);

      const cluster::PlacementDecision d =
          placer.Decide(ipu_b, gpu_b, core::MethodName(method), ni);
      io.Add("{\"mode\": \"crossover\", \"decision\": " + d.ToJson() + "}");
      t.AddRow({core::MethodName(method),
                Table::Int(static_cast<long long>(ni)),
                Table::Num(d.ipu.qps_per_device, 0),
                Table::Num(d.gpu.qps_per_device, 0),
                Table::Num(d.ipu.score, 0), Table::Num(d.gpu.score, 0),
                d.winner, Table::Num(d.margin, 2)});

      // The paper's crossover, held as a gate: at n >= 1024 dense GEMM
      // belongs on the GPU while the factorized layers belong on the IPU.
      if (ni >= 1024) {
        const bool dense = method == core::Method::kBaseline;
        const std::string expect = dense ? "gpu" : "ipu";
        if (d.winner != expect) {
          std::printf("crossover MISS: %s n=%zu went to %s, expected %s\n",
                      core::MethodName(method), ni, d.winner.c_str(),
                      expect.c_str());
          crossover_ok = false;
        }
      }
    }
  }
  t.Print();

  // Heterogeneous serving: one butterfly model, one router, both
  // substrates live. The IPU slot carries a real replica pool (numerics
  // capable); the GPU slot serves from the cost model.
  {
    nn::Sequential model;
    const nn::ForwardSpec spec =
        BuildSpec(core::Method::kButterfly, n, seed, model);
    serve::PlanOptions popts{.max_batch = max_batch, .execute = false};
    popts.cache = &io.cache();
    const serve::CapacityProbe cp =
        serve::ProbeMaxReplicas(spec, arch, popts, cap);
    REPRO_REQUIRE(cp.replicas > 0, "butterfly fits no replica at n=%zu", n);
    serve::PlanOptions opts = popts;
    opts.num_tiles = arch.num_tiles / cp.replicas;
    opts.streaming = true;
    auto plan = serve::ModelPlan::Build(spec, arch, opts);
    REPRO_REQUIRE(plan.ok(), "hetero plan: %s",
                  plan.status().message().c_str());
    serve::ReplicaPool pool(*plan.value(), cp.replicas);
    serve::IpuBackend ipu_b(*plan.value(), &pool);
    gpu::GpuBackendOptions gopts;
    gopts.max_batch = max_batch;
    gopts.replica_cap = cap;
    gpu::GpuBackend gpu_b(spec, gpu::A30(), gopts);

    cluster::RouterConfig rc;
    rc.batch = serve::BatchPolicy{.max_batch = max_batch,
                                  .max_delay_s = delay_s};
    rc.host_threads = host_threads;
    rc.tracer = tp;
    rc.trace_pid = 1;
    rc.trace_label = "serve:auto:hetero";
    const std::size_t clients =
        (ipu_b.replicas() + gpu_b.replicas()) * max_batch;
    rc.queue_capacity = clients;
    cluster::Router router({&ipu_b, &gpu_b}, rc);
    const std::size_t requests =
        cli.GetInt("requests", clients * (fast ? 2 : 8));
    cluster::ClusterResult res = router.RunClosedLoop(
        serve::ClosedLoopLoad{.clients = clients,
                              .requests = requests,
                              .think_s = 0.0});
    io.Add(std::string("{\"mode\": \"hetero\", \"method\": \"Butterfly\", "
                       "\"n\": ") +
           std::to_string(n) + ", \"chips\": 2, \"ipu_replicas\": " +
           std::to_string(ipu_b.replicas()) + ", \"gpu_replicas\": " +
           std::to_string(gpu_b.replicas()) +
           ", \"metrics\": " + res.metrics.ToJson() + "}");
    std::printf("\nheterogeneous router (butterfly n=%zu): ipu %zu replicas "
                "+ gpu %zu replicas -> %.0f QPS, %zu + %zu requests routed\n",
                n, ipu_b.replicas(), gpu_b.replicas(), res.metrics.qps(),
                res.metrics.routedPerChip()[0],
                res.metrics.routedPerChip()[1]);
  }

  io.PrintCacheStats();
  PrintEngineHostWall();
  io.Finish();
  if (require_crossover && !crossover_ok) {
    std::printf("\n--require-crossover not met\n");
    return 1;
  }
  if (require_crossover) {
    std::printf("crossover gate: dense -> gpu, butterfly/pixelfly -> ipu at "
                "n >= 1024, as the paper's Table 4 predicts\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool fast = cli.Fast();
  const std::size_t n = cli.GetInt("n", 1024);
  const std::size_t max_batch = cli.GetInt("batch", 32);
  const double delay_s = cli.GetDouble("delay-us", 200.0) * 1e-6;
  const std::size_t cap = cli.GetInt("cap", 256);
  const double rate_frac = cli.GetDouble("rate-frac", 0.7);
  const std::uint64_t seed = cli.GetInt("seed", 1);
  // Host workers for the serving numerics replay; trace + metrics bytes are
  // invariant to it (scripts/check.sh cmp(1)s two --host-threads runs).
  const std::size_t host_threads = cli.GetInt("host-threads", 0);
  // Shared --json / --trace / --cache-dir surface. The compile cache is
  // always on in-process (the probe and the serving plan share artifacts);
  // --cache-dir additionally persists artifacts on disk so a second
  // invocation warm-starts without compiling at all.
  BenchIo io("serving", cli);
  const std::string backend_mode = cli.GetString("backend", "ipu");
  REPRO_REQUIRE(backend_mode == "ipu" || backend_mode == "gpu" ||
                    backend_mode == "auto",
                "--backend must be ipu, gpu or auto (got '%s')",
                backend_mode.c_str());
  if (backend_mode == "gpu") return RunGpuMode(cli, io);
  if (backend_mode == "auto") return RunAutoMode(cli, io);

  obs::Tracer* const tp = io.tracer();

  core::ShlShape shape;
  shape.input = n;
  shape.hidden = n;
  shape.pixelfly = core::ScaledPixelflyConfig(n);
  const ipu::IpuArch arch = ipu::Gc200();

  PrintBanner("Serving capacity at fixed per-tile memory: replicated "
              "forward plans on one GC200");
  std::printf("n = %zu, max_batch = %zu, batching delay = %.0f us, replica "
              "cap = %zu\n\n",
              n, max_batch, delay_s * 1e6, cap);

  std::vector<MethodResult> results;
  std::size_t mi = 0;
  for (core::Method method : kServeMethods) {
    ++mi;
    Rng rng(seed);
    nn::Sequential model = nn::BuildShl(method, shape, rng);
    nn::ForwardSpec spec = nn::ExportForward(model);

    serve::PlanOptions probe{.max_batch = max_batch, .execute = false};
    probe.cache = &io.cache();
    MethodResult r;
    r.method = method;
    const serve::CapacityProbe cp =
        serve::ProbeMaxReplicas(spec, arch, probe, cap);
    r.replicas = cp.replicas;
    r.probe_compiles = cp.probe_compiles;
    r.probe_cache_hits = cp.probe_cache_hits;
    if (r.replicas == 0) {
      std::printf("%-10s does not fit even one replica, skipping\n",
                  core::MethodName(method));
      continue;
    }
    r.tiles_per_replica = arch.num_tiles / r.replicas;

    // Both ingress paths ride the same capacity probe: streaming first
    // (the production path), then the plain host-copy baseline it is
    // gated against. Each path gets its own trio of trace processes.
    for (int ingress = 0; ingress < 2; ++ingress) {
      const bool streaming = ingress == 0;
      MethodResult rr = r;
      rr.ingress = streaming ? "stream" : "copy";
      const std::size_t pid0 = 6 * mi + (streaming ? 0 : 3);

      serve::PlanOptions opts = probe;
      opts.num_tiles = rr.tiles_per_replica;
      opts.streaming = streaming;
      // The serving plan's compile passes + calibration-run BSP timeline get
      // their own trace process; the capacity probes above stay untraced.
      opts.tracer = tp;
      opts.trace_pid = pid0;
      opts.trace_label = std::string("plan:") + core::MethodName(method) +
                         ":" + rr.ingress;
      auto plan = serve::ModelPlan::Build(spec, arch, opts);
      REPRO_REQUIRE(plan.ok(), "replica plan for %s: %s",
                    core::MethodName(method), plan.status().message().c_str());
      rr.service_us = plan.value()->batchSeconds() * 1e6;
      rr.counts = plan.value()->counts();

      serve::ReplicaPool pool(*plan.value(), rr.replicas);
      serve::ServerConfig cfg;
      cfg.batch = serve::BatchPolicy{.max_batch = max_batch,
                                     .max_delay_s = delay_s};
      cfg.host_threads = host_threads;
      cfg.tracer = tp;

      // Closed loop: two batches worth of clients per replica so the
      // streaming path's depth-2 pipeline can actually fill (batch N+1's
      // input transfer overlapping batch N's compute); the copy path gets
      // the identical load and just queues the surplus. Queue sized to the
      // client count (the backpressure contract).
      const std::size_t clients = 2 * rr.replicas * max_batch;
      cfg.queue_capacity = clients;
      const std::size_t closed_requests =
          cli.GetInt("requests", clients * (fast ? 4 : 16));
      {
        cfg.trace_pid = pid0 + 1;
        cfg.trace_label = std::string("serve:") + core::MethodName(method) +
                          ":" + rr.ingress + ":closed";
        serve::Server server(pool, cfg);
        serve::ServeResult res = server.RunClosedLoop(
            serve::ClosedLoopLoad{.clients = clients,
                                  .requests = closed_requests,
                                  .think_s = 0.0});
        rr.closed_qps = res.metrics.qps();
        rr.closed = res.metrics;
      }

      // Open loop at a fraction of sustained capacity: the latency picture.
      rr.offered_qps = rate_frac * rr.closed_qps;
      {
        cfg.trace_pid = pid0 + 2;
        cfg.trace_label = std::string("serve:") + core::MethodName(method) +
                          ":" + rr.ingress + ":open";
        serve::Server server(pool, cfg);
        serve::ServeResult res = server.RunOpenLoop(
            serve::OpenLoopLoad{.qps = rr.offered_qps,
                                .requests = closed_requests,
                                .seed = seed});
        rr.open = res.metrics;
      }

      io.Add(Record(rr, "closed", rr.closed, 0.0, n));
      io.Add(Record(rr, "open", rr.open, rr.offered_qps, n));
      results.push_back(std::move(rr));
    }
  }

  Table t({"Method", "ingress", "replicas", "tiles/rep", "service [us]",
           "closed QPS", "open p50 [us]", "open p99 [us]", "occupancy",
           "rejected"});
  for (const MethodResult& r : results) {
    t.AddRow({core::MethodName(r.method), r.ingress,
              Table::Int(static_cast<long long>(r.replicas)),
              Table::Int(static_cast<long long>(r.tiles_per_replica)),
              Table::Num(r.service_us, 1), Table::Num(r.closed_qps, 0),
              Table::Num(r.open.LatencyPercentile(50.0) * 1e6, 1),
              Table::Num(r.open.LatencyPercentile(99.0) * 1e6, 1),
              Table::Num(r.open.meanOccupancy(), 2),
              Table::Int(static_cast<long long>(r.open.rejected()))});
  }
  t.Print();

  // Streaming vs copy head-to-head per method; the --require-stream-win
  // gate lets scripts/check.sh hold the double-buffered ingress to a
  // reproducible throughput win (and actual overlap) over the host copy.
  const double require_win = cli.GetDouble("require-stream-win", 0.0);
  bool stream_win_ok = true;
  std::printf("\nStreaming ingress vs host copy (closed-loop QPS):\n");
  std::vector<const MethodResult*> stream_results;
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const MethodResult& s = results[i];
    const MethodResult& c = results[i + 1];
    stream_results.push_back(&s);
    const double ratio = s.closed_qps / c.closed_qps;
    const double overlap_s = s.closed.overlappedHostSeconds();
    std::printf("  %-10s stream %.0f QPS vs copy %.0f QPS (%.3fx), "
                "overlapped host time %.1f us\n",
                core::MethodName(s.method), s.closed_qps, c.closed_qps, ratio,
                overlap_s * 1e6);
    if (require_win > 0.0 && (ratio < require_win || overlap_s <= 0.0)) {
      std::printf("  FAIL: %s streaming ratio %.4f < required %.4f or no "
                  "overlap\n",
                  core::MethodName(s.method), ratio, require_win);
      stream_win_ok = false;
    }
  }

  if (stream_results.size() == 3) {
    const MethodResult& dense = *stream_results[0];
    std::printf(
        "\nReplicas per GC200 at n = %zu: dense %zu, butterfly %zu (%.1fx), "
        "pixelfly %zu (%.1fx)\n-- the O(n log n) / block-sparse factorizations "
        "turn the saved per-tile memory\ninto extra replicas, and replicas "
        "into serving throughput (%.0f -> %.0f QPS).\n",
        n, dense.replicas, stream_results[1]->replicas,
        double(stream_results[1]->replicas) / double(dense.replicas),
        stream_results[2]->replicas,
        double(stream_results[2]->replicas) / double(dense.replicas),
        dense.closed_qps, stream_results[1]->closed_qps);
  }
  // Disk/process cache statistics go to stdout only: they depend on what a
  // previous run left in --cache-dir, and the --json bytes are held to
  // cold-vs-warm equality by scripts/check.sh.
  io.PrintCacheStats();
  PrintEngineHostWall();
  io.Finish();
  if (!stream_win_ok) {
    std::printf("\n--require-stream-win %.4f not met\n", require_win);
    return 1;
  }
  return 0;
}
