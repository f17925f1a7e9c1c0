#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/router.h"
#include "core/device_time.h"
#include "core/method.h"
#include "data/synthetic.h"
#include "ipusim/arch.h"
#include "ipusim/engine.h"
#include "ipusim/exe_cache.h"
#include "linalg/gemm.h"
#include "nn/export.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/trainer.h"
#include "obs/trace.h"
#include "serve/model_plan.h"
#include "serve/replica_pool.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace repro;

constexpr core::Method kServeMethods[] = {
    core::Method::kBaseline, core::Method::kButterfly, core::Method::kPixelfly};

// Metric-suffix names of the methods.
const char* Short(core::Method m) {
  switch (m) {
    case core::Method::kBaseline: return "dense";
    case core::Method::kButterfly: return "butterfly";
    case core::Method::kFastfood: return "fastfood";
    case core::Method::kCirculant: return "circulant";
    case core::Method::kLowRank: return "lowrank";
    case core::Method::kPixelfly: return "pixelfly";
  }
  return "unknown";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Runs fn inside a span; returns the span's index (-1 when not tracing).
template <typename Fn>
int InSpan(SpanRecorder& rec, std::string name, Fn&& fn) {
  auto scope = rec.Open(std::move(name));
  fn();
  return scope.index();
}

// InSpan for calls that may build or run engines: the engine host time the
// library measured during the call becomes counters and derived children.
template <typename Fn>
int EngineCall(SpanRecorder& rec, IterResult& out, std::string name, Fn&& fn) {
  const ipu::EngineHostStats a = ipu::EngineHostStatsSnapshot();
  const int span = InSpan(rec, std::move(name), fn);
  const ipu::EngineHostStats b = ipu::EngineHostStatsSnapshot();
  const double build = b.build_seconds - a.build_seconds;
  const double run = b.run_seconds - a.run_seconds;
  out.counters["ipusim.engine_build_s"] += build;
  out.counters["ipusim.engine_build_vertices"] +=
      static_cast<double>(b.build_vertices - a.build_vertices);
  out.counters["ipusim.engine_run_s"] += run;
  out.counters["ipusim.run_vertices"] +=
      static_cast<double>(b.run_vertices - a.run_vertices);
  out.counters["ipusim.run_dispatches"] +=
      static_cast<double>(b.run_dispatches - a.run_dispatches);
  rec.AddDerived(span, "ipusim.engine_build", build);
  rec.AddDerived(span, "ipusim.engine_run", run);
  return span;
}

// Files one compile's PassReport::seconds (0 for an artifact loaded from
// disk) under `span`, where the compile happened.
void FileCompile(SpanRecorder& rec, IterResult& out, int span,
                 const ipu::Executable& exe) {
  double total = 0.0;
  for (const ipu::PassReport& p : exe.stats.pass_reports) {
    out.counters["ipusim.pass." + p.pass + "_s"] += p.seconds;
    total += p.seconds;
  }
  if (total <= 0.0) return;
  out.counters["ipusim.compile_s"] += total;
  out.counters["ipusim.compile_vertices"] +=
      static_cast<double>(exe.stats.num_vertices);
  rec.AddDerived(span, "ipusim.compile", total);
}

nn::Sequential BuildServeModel(core::Method method, std::size_t n,
                               std::uint64_t seed) {
  core::ShlShape shape;
  shape.input = n;
  shape.hidden = n;
  shape.pixelfly = core::ScaledPixelflyConfig(n);
  Rng rng(seed);
  return nn::BuildShl(method, shape, rng);
}

serve::ServerConfig ServeConfig(const Options& opts, std::size_t clients) {
  serve::ServerConfig cfg;
  cfg.batch = serve::BatchPolicy{.max_batch = opts.sizes.max_batch,
                                 .max_delay_s = 200e-6};
  cfg.host_threads = opts.threads;
  cfg.queue_capacity = clients;
  return cfg;
}

// ---------------------------------------------------------------------------
// Capacity study: the paper's serving claim at n, for the three serving
// methods. Returns the serialized record of every simulated output. A
// non-null `tracer` records the plan builds (compile passes and calibration
// timelines); request-level serving spans would make the trace gigabytes.

std::string RunStudy(std::vector<nn::Sequential>& models, ipu::ExeCache& cache,
                     const Options& opts, SpanRecorder& rec, IterResult& out,
                     obs::Tracer* tracer) {
  const ipu::IpuArch arch = ipu::Gc200();
  const Sizes& z = opts.sizes;
  std::string record;
  std::size_t pid = 0;
  for (std::size_t mi = 0; mi < std::size(kServeMethods); ++mi) {
    const core::Method method = kServeMethods[mi];
    const std::string m = Short(method);
    nn::ForwardSpec spec;
    InSpan(rec, "nn.export_forward",
           [&] { spec = nn::ExportForward(models[mi]); });

    serve::PlanOptions probe;
    probe.max_batch = z.max_batch;
    probe.execute = false;
    probe.cache = &cache;
    serve::CapacityProbe cp;
    const int probe_span = EngineCall(rec, out, "serve.probe", [&] {
      cp = serve::ProbeMaxReplicas(spec, arch, probe, z.cap);
    });
    out.counters["serve.probe_compiles"] += static_cast<double>(cp.probe_compiles);
    record += m + " replicas=" + std::to_string(cp.replicas) +
              " compiles=" + std::to_string(cp.probe_compiles) +
              " hits=" + std::to_string(cp.probe_cache_hits) + "\n";
    if (cp.replicas == 0) {
      out.failed = 1;
      continue;
    }

    for (const bool streaming : {true, false}) {
      const std::string ingress = streaming ? "stream" : "copy";
      serve::PlanOptions po = probe;
      po.num_tiles = arch.num_tiles / cp.replicas;
      po.streaming = streaming;
      if (tracer != nullptr) {
        po.tracer = tracer;
        po.trace_pid = ++pid;
        po.trace_label = "plan:" + m + ":" + ingress;
      }
      const std::size_t misses = cache.stats().misses;
      std::unique_ptr<serve::ModelPlan> plan;
      const int plan_span = EngineCall(rec, out, "serve.plan_build", [&] {
        auto built = serve::ModelPlan::Build(spec, arch, po);
        if (built.ok()) plan = built.take();
      });
      if (plan == nullptr) {
        out.failed = 1;
        continue;
      }
      // The stream plan reuses the probe's final compile from memory; a
      // plan that missed the cache compiled inside its own span.
      FileCompile(rec, out,
                  cache.stats().misses > misses ? plan_span : probe_span,
                  plan->executable());

      std::unique_ptr<serve::ReplicaPool> pool;
      EngineCall(rec, out, "serve.pool_build", [&] {
        pool = std::make_unique<serve::ReplicaPool>(*plan, cp.replicas);
      });

      const std::size_t clients = 2 * cp.replicas * z.max_batch;
      const std::size_t requests = z.request_factor * clients;
      const serve::ServerConfig cfg = ServeConfig(opts, clients);
      serve::ServeMetrics closed{1}, open{1};
      InSpan(rec, "serve.des_closed", [&] {
        serve::Server server(*pool, cfg);
        closed = server
                     .RunClosedLoop(serve::ClosedLoopLoad{
                         .clients = clients, .requests = requests})
                     .metrics;
      });
      const double offered = 0.7 * closed.qps();
      InSpan(rec, "serve.des_open", [&] {
        serve::Server server(*pool, cfg);
        open = server
                   .RunOpenLoop(serve::OpenLoopLoad{
                       .qps = offered, .requests = requests, .seed = opts.seed})
                   .metrics;
      });
      out.counters["serve.batches"] +=
          static_cast<double>(closed.batches() + open.batches());
      out.counters["serve.des_requests"] += static_cast<double>(2 * requests);

      std::string closed_json, open_json;
      InSpan(rec, "serve.metrics_json", [&] {
        closed_json = closed.ToJson();
        open_json = open.ToJson();
      });
      record += m + " " + ingress + " service_us=" +
                Num(plan->batchSeconds() * 1e6) + " counts=" +
                plan->counts().ToJson() + "\nclosed " + closed_json +
                "\nopen " + open_json + "\n";
      if (streaming) {
        out.sim["sim.replicas." + m] = static_cast<double>(cp.replicas);
        out.sim["sim.service_us." + m] = plan->batchSeconds() * 1e6;
        out.sim["sim.closed_qps." + m] = closed.qps();
        out.sim["sim.open_p99_us." + m] = open.LatencyPercentile(99.0) * 1e6;
      }

      // A 2-chip router over the butterfly pool (timing only, so both chip
      // slots may share one pool).
      if (method == core::Method::kButterfly && streaming) {
        cluster::RouterConfig rc;
        rc.batch = cfg.batch;
        rc.host_threads = opts.threads;
        rc.queue_capacity = clients;
        std::optional<cluster::ClusterMetrics> routed;
        InSpan(rec, "cluster.router", [&] {
          cluster::Router router(
              std::vector<serve::ReplicaPool*>{pool.get(), pool.get()}, rc);
          routed.emplace(router
                             .RunClosedLoop(serve::ClosedLoopLoad{
                                 .clients = clients, .requests = requests})
                             .metrics);
        });
        out.counters["cluster.router_requests"] += static_cast<double>(requests);
        std::string routed_json;
        InSpan(rec, "cluster.metrics_json",
               [&] { routed_json = routed->ToJson(); });
        record += "router " + routed_json + "\n";
      }
    }
  }

  return record;
}

// Adds one cache object's counters to the iteration's.
void AddCacheStats(const ipu::ExeCacheStats& st, IterResult& out) {
  out.counters["ipusim.cache.compiles"] += static_cast<double>(st.misses);
  out.counters["ipusim.cache.disk_hits"] += static_cast<double>(st.disk_hits);
  out.counters["ipusim.cache.memory_hits"] += static_cast<double>(st.memory_hits);
  out.counters["ipusim.cache.disk_stores"] += static_cast<double>(st.disk_stores);
  out.counters["ipusim.cache.lookups"] += static_cast<double>(st.lookups());
  out.counters["ipusim.cache.hits"] += static_cast<double>(st.hits());
}

// Each iteration runs the study twice on a fresh cache directory: cold
// (every artifact compiled and stored) and then warm (a new cache object
// on the same directory, every artifact loaded from disk). One workload
// thus times both sides of the cache: as two workloads, the benchmark's
// overall time limit left each too short a run to measure steadily.
class CapacityWorkload final : public Workload {
 public:
  explicit CapacityWorkload(const Options& opts) : opts_(opts) {
    for (core::Method method : kServeMethods) {
      models_.push_back(BuildServeModel(method, opts.sizes.n, opts.seed));
    }
  }

  IterResult Iterate(SpanRecorder& rec) override {
    IterResult out;
    prev_dir_ = dir_;
    dir_ = opts_.work_dir + "/study-" + std::to_string(iteration_++);
    std::string record[2];
    for (std::string& r : record) {
      ipu::ExeCache cache(dir_);  // a fresh cache object every study
      r = RunStudy(models_, cache, opts_, rec, out, nullptr);
      AddCacheStats(cache.stats(), out);
    }
    const double lookups = out.counters["ipusim.cache.lookups"];
    out.counters["ipusim.cache.hit_ratio"] =
        lookups == 0.0 ? 0.0 : out.counters["ipusim.cache.hits"] / lookups;
    last_ = out.counters;
    out.units = 2;
    // A study fails if it differs from the run's first one; the warm study
    // must also match the cold one it loaded from.
    if (reference_.empty()) reference_ = record[0];
    for (const std::string& r : record) {
      if (r != reference_) ++out.failed;
    }
    out.digest = Digest(record[0] + record[1]);
    return out;
  }

  void AfterIteration() override {
    if (!prev_dir_.empty()) fs::remove_all(prev_dir_);
    prev_dir_.clear();
  }

  std::map<std::string, double> Probe(
      const std::map<std::string, double>& /*traced*/) override {
    std::map<std::string, double> m;
    // The cache layer at its public boundary, over this run's artifacts:
    // mean cost per artifact, times how often one study pays it.
    double deser = 0.0, ser = 0.0, key = 0.0, bytes = 0.0;
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() != ".ipuexe") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      const std::vector<std::uint8_t> raw(
          (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
      auto t0 = Clock::now();
      StatusOr<ipu::Executable> exe = ipu::Executable::Deserialize(raw);
      auto t1 = Clock::now();
      if (!exe.ok()) continue;
      const std::vector<std::uint8_t> again = exe.value().Serialize();
      auto t2 = Clock::now();
      ipu::ExeCache::KeyOf(*exe.value().graph, exe.value().program,
                           ipu::CompileOptions{});
      auto t3 = Clock::now();
      REPRO_REQUIRE(again == raw, "artifact %s does not round-trip",
                    entry.path().c_str());
      deser += Seconds(t0, t1);
      ser += Seconds(t1, t2);
      key += Seconds(t2, t3);
      bytes += static_cast<double>(raw.size());
      ++files;
    }
    if (files > 0) {
      const double f = static_cast<double>(files);
      const double hits = last_["ipusim.cache.disk_hits"];
      const double stores = last_["ipusim.cache.disk_stores"];
      m["ipusim.deserialize_s"] = deser / f * hits;
      m["ipusim.serialize_s"] = ser / f * stores;
      m["ipusim.cache_key_s"] = key / f * last_["ipusim.cache.lookups"];
      m["ipusim.artifact_bytes"] = bytes / f * (hits + stores);
    }

    // obs: export the trace of one traced study (in-memory cache).
    obs::Tracer tracer;
    ipu::ExeCache cache;
    SpanRecorder off(false);
    IterResult ignored;
    RunStudy(models_, cache, opts_, off, ignored, &tracer);
    const auto t0 = Clock::now();
    tracer.ToJson();
    m["obs.trace_json_s"] = Seconds(t0, Clock::now());
    return m;
  }

 private:
  Options opts_;
  std::vector<nn::Sequential> models_;
  std::string dir_, prev_dir_, reference_;
  std::size_t iteration_ = 0;
  std::map<std::string, double> last_;  // counters of the latest study
};

// ---------------------------------------------------------------------------
// Served replay: closed-loop serving with real request features through
// execute plans; every request's logits are checked against host forward.

class ReplayWorkload final : public Workload {
 public:
  explicit ReplayWorkload(const Options& opts) : opts_(opts) {
    const Sizes& z = opts.sizes;
    const ipu::IpuArch arch = ipu::Gc200();
    Rng data_rng(opts.seed * 0x9e3779b97f4a7c15ull + 11);
    inputs_ = Matrix::RandomUniform(z.replay_rows, z.n, data_rng, -1.0f, 1.0f);
    for (core::Method method : kServeMethods) {
      Served s;
      s.method = method;
      nn::Sequential model = BuildServeModel(method, z.n, opts.seed);
      s.reference = model.Forward(inputs_, /*train=*/false);
      const nn::ForwardSpec spec = nn::ExportForward(model);
      serve::PlanOptions po;
      po.max_batch = z.max_batch;
      po.num_tiles = arch.num_tiles / z.replay_replicas;
      auto plan = serve::ModelPlan::Build(spec, arch, po);
      REPRO_REQUIRE(plan.ok(), "replay plan for %s: %s", Short(method),
                    plan.status().message().c_str());
      s.plan = plan.take();
      s.pool = std::make_unique<serve::ReplicaPool>(*s.plan, z.replay_replicas);
      served_.push_back(std::move(s));
    }
  }

  IterResult Iterate(SpanRecorder& rec) override {
    const Sizes& z = opts_.sizes;
    IterResult out;
    std::string record;
    for (Served& s : served_) {
      const std::string m = Short(s.method);
      std::optional<serve::ServeResult> res;
      EngineCall(rec, out, "serve.serve_closed@" + m,
                 [&] { res.emplace(Serve(s, &inputs_)); });
      const serve::ServeMetrics& metrics = res->metrics;
      const std::size_t done = metrics.completed();
      out.units += z.replay_requests;
      out.failed += z.replay_requests - std::min(done, z.replay_requests);
      for (std::size_t id = 0; id < std::min(done, z.replay_requests); ++id) {
        const auto got = res->logits.row(id);
        const auto want = s.reference.row(id % inputs_.rows());
        double diff = 0.0;
        for (std::size_t j = 0; j < got.size(); ++j) {
          diff = std::max(diff, static_cast<double>(std::abs(got[j] - want[j])));
        }
        if (!(diff <= 1e-3)) ++out.failed;
      }
      out.counters["serve.batches"] += static_cast<double>(metrics.batches());
      out.sim["sim.replicas." + m] = static_cast<double>(s.pool->size());
      out.sim["sim.service_us." + m] = s.plan->batchSeconds() * 1e6;
      out.sim["sim.closed_qps." + m] = metrics.qps();
      record += m + " " + metrics.ToJson() + "\n";
      record.append(reinterpret_cast<const char*>(res->logits.data()),
                    res->logits.size() * sizeof(float));
    }
    out.digest = Digest(record);
    return out;
  }

  std::map<std::string, double> Probe(
      const std::map<std::string, double>& traced) override {
    // The same load without inputs: the DES alone. Replay is the rest.
    std::map<std::string, double> m;
    double des_total = 0.0, replay_total = 0.0;
    for (Served& s : served_) {
      std::vector<double> t;
      for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        Serve(s, nullptr);
        t.push_back(Seconds(t0, Clock::now()));
      }
      std::sort(t.begin(), t.end());
      const std::string name = Short(s.method);
      const double des = t[t.size() / 2];
      const auto with = traced.find("serve.serve_closed_s." + name);
      const double replay =
          std::max(0.0, (with == traced.end() ? 0.0 : with->second) - des);
      m["serve.des_s." + name] = des;
      m["serve.replay_s." + name] = replay;
      des_total += des;
      replay_total += replay;
    }
    m["serve.des_s"] = des_total;
    m["serve.replay_s"] = replay_total;
    const auto run = traced.find("ipusim.engine_run_s");
    if (run != traced.end() && replay_total > 0.0) {
      m["serve.replay_parallel_eff"] =
          run->second / (replay_total * static_cast<double>(opts_.threads));
    }
    return m;
  }

 private:
  struct Served {
    core::Method method = core::Method::kBaseline;
    std::unique_ptr<serve::ModelPlan> plan;
    std::unique_ptr<serve::ReplicaPool> pool;
    Matrix reference;  // host-forward logits of every input row
  };

  serve::ServeResult Serve(Served& s, const Matrix* inputs) {
    const std::size_t clients = 2 * s.pool->size() * opts_.sizes.max_batch;
    serve::Server server(*s.pool, ServeConfig(opts_, clients));
    return server.RunClosedLoop(
        serve::ClosedLoopLoad{.clients = clients,
                              .requests = opts_.sizes.replay_requests},
        inputs);
  }

  Options opts_;
  Matrix inputs_;
  std::vector<Served> served_;
};

// ---------------------------------------------------------------------------
// Table 4 training: one epoch of each of the six methods on synthetic CIFAR.

class TrainWorkload final : public Workload {
 public:
  explicit TrainWorkload(const Options& opts) : opts_(opts) {
    const auto t0 = Clock::now();
    data::SyntheticConfig dcfg;
    dcfg.num_samples = opts.sizes.train_samples;
    dcfg.sample_seed = opts.seed;
    train_ = data::SyntheticCifar10(dcfg);
    dcfg.num_samples = opts.sizes.test_samples;
    dcfg.sample_seed = opts.seed + 0x5bd1e995;
    test_ = data::SyntheticCifar10(dcfg);
    data::StandardizeTogether(train_, {&test_});
    synthetic_s_ = Seconds(t0, Clock::now());
    cfg_.epochs = 1;
    cfg_.lr = 0.003;  // bench_table4_shl's default schedule
  }

  IterResult Iterate(SpanRecorder& rec) override {
    IterResult out;
    std::string record;
    for (core::Method method : core::kAllMethods) {
      const std::string m = Short(method);
      double loss = 0.0;
      std::size_t steps = 0;
      InSpan(rec, "nn.train@" + m, [&] {
        if (rec.enabled()) {
          loss = StepLoop(rec, method, steps);
        } else {
          nn::Sequential model = BuildModel(method);
          const nn::TrainResult r = nn::Train(model, train_, test_, cfg_);
          loss = r.final_train_loss;
          steps = r.steps;
        }
      });
      const std::size_t samples = steps * cfg_.batch_size;
      out.units += samples;
      // An epoch fails if its loss is non-finite or differs (bitwise) from
      // the run's first epoch of the method -- which also holds the traced
      // step loop to nn::Train's loss.
      const double first = first_loss_.try_emplace(method, loss).first->second;
      if (!std::isfinite(loss) || std::memcmp(&first, &loss, sizeof loss) != 0) {
        out.failed += samples;
      }
      record += m + " loss=" + Num(loss) + " steps=" + std::to_string(steps) + "\n";
    }
    out.digest = Digest(record);
    return out;
  }

  std::map<std::string, double> Probe(
      const std::map<std::string, double>& /*traced*/) override {
    std::map<std::string, double> m;
    m["data.synthetic_s"] = synthetic_s_;
    // The dense layer's GEMM shape: batch 50 x 1024 x 1024.
    Rng rng(opts_.seed);
    const Matrix a = Matrix::RandomNormal(50, 1024, rng);
    const Matrix b = Matrix::RandomNormal(1024, 1024, rng);
    Matrix c;
    std::vector<double> t;
    for (int rep = 0; rep < 15; ++rep) {
      const auto t0 = Clock::now();
      c = MatMul(a, b);
      t.push_back(Seconds(t0, Clock::now()));
    }
    std::sort(t.begin(), t.end());
    m["linalg.gemm_gflops"] = GemmFlops(50, 1024, 1024) / t[t.size() / 2] * 1e-9;
    return m;
  }

 private:
  nn::Sequential BuildModel(core::Method method) const {
    Rng rng(42);
    core::ShlShape shape;
    shape.batch = cfg_.batch_size;
    return nn::BuildShl(method, shape, rng);
  }

  // nn::Train's epoch, step by step through the public API with a span at
  // every call; returns the mean training loss.
  double StepLoop(SpanRecorder& rec, core::Method method, std::size_t& steps) {
    nn::Sequential model;
    InSpan(rec, "nn.build_model", [&] { model = BuildModel(method); });
    data::Split split;
    InSpan(rec, "data.split",
           [&] { split = data::SplitValidation(train_, cfg_.val_fraction); });
    nn::Sgd opt(model.parameters(),
                nn::Sgd::Config{cfg_.lr, cfg_.momentum, 0.0});
    Rng rng(cfg_.seed);
    data::BatchIterator it(split.train, cfg_.batch_size, rng);
    Matrix x, dlogits;
    std::vector<std::uint8_t> y;
    double loss_sum = 0.0;
    std::size_t batches = 0;
    it.Reset();
    for (;;) {
      bool more = false;
      InSpan(rec, "data.next_batch", [&] { more = it.Next(x, y); });
      if (!more) break;
      const Matrix* logits = nullptr;
      InSpan(rec, "nn.forward", [&] { logits = &model.Forward(x, true); });
      nn::LossResult lr;
      InSpan(rec, "nn.loss",
             [&] { lr = nn::SoftmaxCrossEntropy(*logits, y, &dlogits); });
      InSpan(rec, "nn.sgd_step", [&] { opt.ZeroGrad(); });
      InSpan(rec, "nn.backward", [&] { model.Backward(dlogits); });
      InSpan(rec, "nn.sgd_step", [&] { opt.Step(); });
      loss_sum += lr.loss;
      ++batches;
    }
    steps = batches;
    InSpan(rec, "nn.evaluate", [&] {
      nn::Evaluate(model, split.val);
      nn::Evaluate(model, test_);
    });
    return batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
  }

  Options opts_;
  data::Dataset train_, test_;
  nn::TrainConfig cfg_;
  double synthetic_s_ = 0.0;
  std::map<core::Method, double> first_loss_;
};

}  // namespace

Sizes Sizes::Tiny() {
  Sizes z;
  z.n = 256;
  z.cap = 64;
  z.request_factor = 2;
  z.replay_replicas = 2;
  z.replay_requests = 256;
  z.replay_rows = 32;
  z.train_samples = 200;
  z.test_samples = 100;
  return z;
}

std::uint64_t Digest(const std::string& bytes, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& opts) {
  if (name == "capacity") return std::make_unique<CapacityWorkload>(opts);
  if (name == "serve_replay") return std::make_unique<ReplayWorkload>(opts);
  if (name == "train_shl") return std::make_unique<TrainWorkload>(opts);
  return nullptr;
}

}  // namespace perfbench
