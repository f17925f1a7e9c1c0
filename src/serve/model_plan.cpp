#include "serve/model_plan.h"

#include <algorithm>
#include <utility>

#include "core/ipu_lowering.h"
#include "util/bitops.h"

namespace repro::serve {

using ipu::Graph;
using ipu::Program;
using ipu::Tensor;

void ModelPlan::buildDenseHidden(Program& seq) {
  Graph& g = session_->graph();
  const std::size_t B = opts_.max_batch;
  hidden_ = g.addVariable("serve_h", Pad16(spec_.hidden), B);
  g.mapLinearly(hidden_, B);
  dense_w_ = AddKSplitGemm(g, seq, "serve_dense", x_, hidden_, spec_.hidden,
                           spec_.input, /*accumulate=*/false, B);
}

void ModelPlan::buildButterflyHidden(Program& seq) {
  const std::size_t n = spec_.hidden;
  REPRO_REQUIRE(spec_.input == n && IsPow2(n),
                "butterfly serving needs square power-of-two hidden layer");
  REPRO_REQUIRE(spec_.butterfly_factors.size() == Log2(n),
                "butterfly factor count mismatch");
  // Butterfly stages at PopTorch-parity cost, the calibrated default.
  core::ButterflyStages stages = core::AddButterflyStages(
      session_->graph(), seq, "serve_b", x_, /*parity=*/true);
  bfly_w_ = std::move(stages.w);
  hidden_ = stages.y;
}

void ModelPlan::buildPixelflyHidden(Program& seq) {
  Graph& g = session_->graph();
  const core::PixelflyConfig& cfg = spec_.pixelfly;
  const std::size_t n = cfg.n;
  const std::size_t B = opts_.max_batch;
  REPRO_REQUIRE(spec_.input == n && spec_.hidden == n,
                "pixelfly serving needs a square hidden layer");
  REPRO_REQUIRE(n % 16 == 0, "pixelfly hidden width must be 16-aligned");

  hidden_ = g.addVariable("serve_h", n, B);
  g.mapLinearly(hidden_, B);
  pf_w_ = g.addVariable("serve_pfw", spec_.pf_pattern.size(),
                        cfg.block_size * cfg.block_size);
  g.mapLinearly(pf_w_, cfg.block_size * cfg.block_size);

  // Low-rank bottleneck t = V^T x first: it only reads x, so the fusion
  // pass merges it into the block-sparse superstep.
  Tensor t;
  if (cfg.low_rank > 0) {
    t = g.addVariable("serve_pft", Pad16(cfg.low_rank), B);
    g.mapLinearly(t, B);
    lr_vt_ = AddKSplitGemm(g, seq, "serve_pfv", x_, t, cfg.low_rank, n,
                           /*accumulate=*/false, B);
  }
  core::AddPixelflyBlocks(g, seq, "serve_", x_, pf_w_, hidden_, cfg,
                          spec_.pf_pattern);
  // Expansion y += U t accumulates into the summed activations; k = rank is
  // small, so the single-chunk accumulate form applies.
  if (cfg.low_rank > 0) {
    lr_u_ = AddKSplitGemm(g, seq, "serve_pfu", t.rowRange(0, cfg.low_rank),
                          hidden_, n, cfg.low_rank, /*accumulate=*/true, B);
  }
}

Status ModelPlan::buildGraph() {
  Graph& g = session_->graph();
  const std::size_t B = opts_.max_batch;
  Program seq = Program::Sequence({});

  x_ = g.addVariable("serve_x", spec_.input, B);
  g.mapLinearly(x_, B);
  seq.add(opts_.streaming ? Program::StreamIn(x_) : Program::HostWrite(x_));

  switch (spec_.method) {
    case core::Method::kBaseline:
      buildDenseHidden(seq);
      break;
    case core::Method::kButterfly:
      buildButterflyHidden(seq);
      break;
    case core::Method::kPixelfly:
      buildPixelflyHidden(seq);
      break;
    default:
      REPRO_REQUIRE(false, "serving supports Baseline/Butterfly/Pixelfly; got %s",
                    core::MethodName(spec_.method));
  }

  // Fused bias + ReLU epilogue over the logical hidden rows (padded rows of
  // the dense lowering stay zero and are never read downstream), then the
  // classifier head and the host readback.
  const Tensor h = hidden_.rowRange(0, spec_.hidden);
  hidden_bias_ = AddBiasRelu(g, seq, "serve", h);
  cls_ = AddClassifierHead(g, seq, "serve", h, spec_.classes);
  const Tensor logits_out = cls_.logits.rowRange(0, spec_.classes);
  seq.add(opts_.streaming ? Program::StreamOut(logits_out)
                          : Program::HostRead(logits_out));

  return session_->compile(std::move(seq));
}

StatusOr<std::unique_ptr<ModelPlan>> ModelPlan::Build(
    const nn::ForwardSpec& spec, const ipu::IpuArch& arch,
    const PlanOptions& opts) {
  REPRO_REQUIRE(opts.max_batch > 0, "max_batch must be positive");
  REPRO_REQUIRE(spec.hidden > 0 && spec.input > 0 && spec.classes > 0,
                "empty forward spec");
  std::unique_ptr<ModelPlan> plan(new ModelPlan());
  plan->spec_ = spec;
  plan->opts_ = opts;
  plan->arch_ = arch;
  if (opts.num_tiles > 0) plan->arch_.num_tiles = opts.num_tiles;
  if (plan->arch_.num_tiles < 2) {
    return Status::InvalidArgument("replica slice below 2 tiles");
  }
  ipu::SessionOptions so;
  so.execute = opts.execute;
  so.fast_repeat = true;
  // One host worker per replica engine: the pool parallelises across
  // replicas, not within one (and timing-only sessions must stay at 0).
  so.host_threads = opts.execute ? 1 : 0;
  so.tracer = opts.tracer;
  so.trace_pid = opts.trace_pid;
  so.trace_label = opts.trace_label;
  so.cache = opts.cache;
  plan->session_ = std::make_unique<ipu::Session>(plan->arch_, so);
  Status st = plan->buildGraph();
  if (!st.ok()) return st;
  if (opts.execute) plan->writeWeights();
  const ipu::RunReport cold = plan->session_->run();
  const double cold_s = cold.seconds(plan->arch_);
  if (opts.streaming) {
    // Cold first batch: the StreamIn stalls for its full transfer and the
    // StreamOut drains entirely behind the (nonexistent) next compute, so
    // cold_s covers input + compute; adding the output drain gives the
    // end-to-end figure comparable to the copy path's batchSeconds().
    const double bw = plan->arch_.host_bandwidth_bytes_per_sec;
    const double in_s = static_cast<double>(plan->x_.bytes()) / bw;
    const double out_s =
        static_cast<double>(
            plan->cls_.logits.rowRange(0, spec.classes).bytes()) /
        bw;
    plan->stream_profile_ = {/*enabled=*/true, in_s,
                             /*compute_s=*/cold_s - in_s, out_s};
    plan->batch_seconds_ = cold_s + out_s;
  } else {
    plan->batch_seconds_ = cold_s;
    plan->stream_profile_ = {/*enabled=*/false, 0.0, cold_s, 0.0};
  }
  return StatusOr<std::unique_ptr<ModelPlan>>(std::move(plan));
}

std::unique_ptr<ipu::Engine> ModelPlan::MakeReplica(
    std::size_t host_threads) const {
  return session_->makeReplica(host_threads);
}

void ModelPlan::writeWeights() {
  ipu::Session& session = *session_;
  switch (spec_.method) {
    case core::Method::kBaseline:
      session.writeTensor(dense_w_.w,
                          PackGemmBlocks(dense_w_, spec_.dense_wt.data()));
      break;
    case core::Method::kButterfly:
      for (std::size_t f = 0; f < bfly_w_.size(); ++f) {
        session.writeTensor(bfly_w_[f], spec_.butterfly_factors[f]);
      }
      break;
    case core::Method::kPixelfly:
      session.writeTensor(pf_w_, spec_.pf_blocks);
      if (spec_.pixelfly.low_rank > 0) {
        session.writeTensor(lr_vt_.w, PackGemmBlocks(lr_vt_, spec_.pf_vt.data()));
        session.writeTensor(lr_u_.w, PackGemmBlocks(lr_u_, spec_.pf_u.data()));
      }
      break;
    default:
      REPRO_REQUIRE(false, "unreachable serving method");
  }
  session.writeTensor(hidden_bias_, spec_.hidden_bias);
  session.writeTensor(cls_.w.w,
                      PackGemmBlocks(cls_.w, spec_.classifier_wt.data()));
  std::vector<float> cb(Pad16(spec_.classes), 0.0f);
  std::copy(spec_.classifier_bias.begin(), spec_.classifier_bias.end(),
            cb.begin());
  session.writeTensor(cls_.bias, cb);
}

Matrix ModelPlan::RunBatch(ipu::Engine& engine, const Matrix& inputs,
                           ipu::RunReport* report) const {
  REPRO_REQUIRE(opts_.execute, "RunBatch on a timing-only plan");
  const std::size_t B = opts_.max_batch;
  engine.writeTensor(x_, FeatureMajorBatch(spec_, inputs, B));
  ipu::RunReport r = engine.run();
  if (report != nullptr) *report = r;
  std::vector<float> lbuf(spec_.classes * B);
  engine.readTensor(cls_.logits.rowRange(0, spec_.classes), lbuf);
  return RowMajorLogits(lbuf, spec_.classes, B, inputs.rows());
}

}  // namespace repro::serve
