#include "serve/model_plan.h"

#include <algorithm>
#include <utility>

#include "core/ipu_lowering.h"
#include "ipusim/codelet.h"
#include "util/bitops.h"

namespace repro::serve {
namespace {

using ipu::Graph;
using ipu::Program;
using ipu::Tensor;

std::size_t Pad16(std::size_t x) { return CeilDiv(x, 16) * 16; }

}  // namespace

ModelPlan::GemmWeights ModelPlan::addGemm(Program& seq, const std::string& name,
                                          const Tensor& x, const Tensor& out,
                                          std::size_t m, std::size_t k,
                                          bool accumulate) {
  // The k-split lowering itself is shared with the cluster shard plans
  // (serve/gemm_lowering.h).
  return AddKSplitGemm(session_->graph(), seq, name, x, out, m, k, accumulate,
                       opts_.max_batch);
}

std::vector<float> ModelPlan::packBlocks(const GemmWeights& gw,
                                         const float* w) {
  return PackGemmBlocks(gw, w);
}

void ModelPlan::buildDenseHidden(Program& seq) {
  Graph& g = session_->graph();
  const std::size_t B = opts_.max_batch;
  hidden_ = g.addVariable("serve_h", Pad16(spec_.hidden), B);
  g.mapLinearly(hidden_, B);
  dense_w_ =
      addGemm(seq, "serve_dense", x_, hidden_, spec_.hidden, spec_.input,
              /*accumulate=*/false);
}

void ModelPlan::buildButterflyHidden(Program& seq) {
  Graph& g = session_->graph();
  const std::size_t n = spec_.hidden;
  const std::size_t B = opts_.max_batch;
  REPRO_REQUIRE(spec_.input == n && IsPow2(n),
                "butterfly serving needs square power-of-two hidden layer");
  const std::size_t factors = spec_.butterfly_factors.size();
  REPRO_REQUIRE(factors == Log2(n), "butterfly factor count mismatch");
  const double cpm = core::ButterflyCyclesPerMac(n, opts_.poptorch_parity);
  Tensor cur = x_;
  for (std::size_t f = 0; f < factors; ++f) {
    Tensor w = g.addVariable("serve_bw" + std::to_string(f), n / 2, 4);
    g.mapLinearly(w, 4);
    bfly_w_.push_back(w);
    if (opts_.poptorch_parity) {
      // Same staged materialisation as TimeButterflyIpu: the framework
      // writes each stage into a fresh staging tensor with alternating
      // mappings, and the liveness pass folds them into ping-pong slots.
      Tensor staged = g.addVariable("serve_bstage" + std::to_string(f), n, B);
      if (f % 2 == 0) {
        core::MapRowsOffset(g, staged, n);
      } else {
        g.mapLinearly(staged, B);
      }
      seq.add(Program::Copy(cur, staged));
      cur = staged;
    }
    ipu::ComputeSetId cs =
        core::AddPairStage(g, cur, n, B, std::size_t{1} << f,
                           ipu::codelets::kButterfly2x2, &w, cpm);
    seq.add(Program::Execute(cs));
  }
  hidden_ = cur;
}

void ModelPlan::buildPixelflyHidden(Program& seq) {
  Graph& g = session_->graph();
  const core::PixelflyConfig& cfg = spec_.pixelfly;
  const std::size_t n = cfg.n;
  const std::size_t b = cfg.block_size;
  const std::size_t B = opts_.max_batch;
  REPRO_REQUIRE(spec_.input == n && spec_.hidden == n,
                "pixelfly serving needs a square hidden layer");
  REPRO_REQUIRE(n % 16 == 0, "pixelfly hidden width must be 16-aligned");
  const auto& pattern = spec_.pf_pattern;
  const std::size_t grid = cfg.grid();
  const std::size_t levels = Log2(cfg.butterfly_size);
  REPRO_REQUIRE(pattern.size() == 2 * grid * levels,
                "pixelfly pattern size mismatch");

  hidden_ = g.addVariable("serve_h", n, B);
  g.mapLinearly(hidden_, B);
  pf_w_ = g.addVariable("serve_pfw", pattern.size(), b * b);
  g.mapLinearly(pf_w_, b * b);

  // Low-rank bottleneck t = V^T x first: it only reads x, so the fusion
  // pass merges it into the block-sparse superstep.
  Tensor t;
  if (cfg.low_rank > 0) {
    t = g.addVariable("serve_pft", Pad16(cfg.low_rank), B);
    g.mapLinearly(t, B);
    lr_vt_ = addGemm(seq, "serve_pfv", x_, t, cfg.low_rank, n,
                     /*accumulate=*/false);
  }

  // One BlockGemmAmp vertex per (output block-row, butterfly level), the
  // executing twin of TimePixelflyIpu's lowering (same spread, same AMP
  // block-efficiency immediates).
  Tensor partials = g.addVariable("serve_pfpart", grid * levels, b * B);
  std::vector<ipu::ComputeSetId> level_cs;
  level_cs.reserve(levels);
  for (std::size_t lv = 0; lv < levels; ++lv) {
    level_cs.push_back(
        g.addComputeSet("serve_pf_lv" + std::to_string(lv)));
  }
  for (std::size_t bi = 0; bi < grid; ++bi) {
    for (std::size_t lv = 0; lv < levels; ++lv) {
      const std::size_t tile =
          (bi * levels + lv) * 977 % g.arch().num_tiles;  // spread
      g.setTileMapping(partials.row(bi * levels + lv), tile);
      ipu::VertexId v =
          g.addVertex(level_cs[lv], ipu::codelets::kBlockGemmAmp, tile);
      // Pattern is level-major: level lv holds blocks [lv*2*grid, ...).
      for (std::size_t q = lv * 2 * grid; q < (lv + 1) * 2 * grid; ++q) {
        if (pattern[q].bi != bi) continue;
        g.connect(v, "w", pf_w_.row(q));
        g.connect(v, "x", x_.rowRange(pattern[q].bj * b, b));
      }
      g.connect(v, "out", partials.row(bi * levels + lv), true);
      g.setInitialValue(v, "b", static_cast<double>(b));
      g.setInitialValue(v, "batch", static_cast<double>(B));
      g.setInitialValue(v, "accumulate", 0.0);
      g.setInitialValue(v, "eff", 0.3);
    }
  }
  for (std::size_t lv = 0; lv < levels; ++lv) {
    seq.add(Program::Execute(level_cs[lv]));
  }
  ipu::ComputeSetId cs_sum = g.addComputeSet("serve_pf_sum");
  for (std::size_t bi = 0; bi < grid; ++bi) {
    const std::size_t tile = g.tileOfElement(hidden_, bi * b * B);
    ipu::VertexId v = g.addVertex(cs_sum, ipu::codelets::kReduceAdd, tile);
    for (std::size_t lv = 0; lv < levels; ++lv) {
      g.connect(v, "partials", partials.row(bi * levels + lv));
    }
    if (cfg.residual) {
      g.connect(v, "partials", x_.rowRange(bi * b, b));  // residual addend
    }
    g.connect(v, "out", hidden_.rowRange(bi * b, b), true);
  }
  seq.add(Program::Execute(cs_sum));

  // Expansion y += U t accumulates into the summed activations; k = rank is
  // small, so the single-chunk accumulate form applies.
  if (cfg.low_rank > 0) {
    lr_u_ = addGemm(seq, "serve_pfu", t.rowRange(0, cfg.low_rank), hidden_, n,
                    cfg.low_rank, /*accumulate=*/true);
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
  // the dense lowering stay zero and are never read downstream).
  Tensor h = hidden_.rowRange(0, spec_.hidden);
  hidden_bias_ = g.addVariable("serve_hb", spec_.hidden);
  g.mapLinearly(hidden_bias_, 1);
  ipu::ComputeSetId cs_bias = g.addComputeSet("serve_bias_relu");
  const std::size_t rows_per_tile =
      std::max<std::size_t>(1, CeilDiv(spec_.hidden, g.arch().num_tiles));
  for (std::size_t r = 0; r < spec_.hidden; r += rows_per_tile) {
    const std::size_t count = std::min(rows_per_tile, spec_.hidden - r);
    const std::size_t tile = g.tileOfElement(h, r * B);
    ipu::VertexId v = g.addVertex(cs_bias, ipu::codelets::kBiasRelu, tile);
    g.connect(v, "bias", hidden_bias_.slice(r, count));
    g.connect(v, "x", h.rowRange(r, count));
    g.connect(v, "y", h.rowRange(r, count), true);
    g.setInitialValue(v, "batch", static_cast<double>(B));
    g.setInitialValue(v, "relu", 1.0);
  }
  seq.add(Program::Execute(cs_bias));

  // Classifier head + bias (no activation) + host readback.
  const std::size_t cp = Pad16(spec_.classes);
  logits_ = g.addVariable("serve_logits", cp, B);
  g.mapLinearly(logits_, B);
  cls_w_ = addGemm(seq, "serve_cls", h, logits_, spec_.classes, spec_.hidden,
                   /*accumulate=*/false);
  cls_bias_ = g.addVariable("serve_cb", cp);
  g.mapLinearly(cls_bias_, 1);
  ipu::ComputeSetId cs_cb = g.addComputeSet("serve_cls_bias");
  ipu::VertexId vb =
      g.addVertex(cs_cb, ipu::codelets::kBiasRelu, g.tileOfElement(logits_, 0));
  g.connect(vb, "bias", cls_bias_);
  g.connect(vb, "x", logits_);
  g.connect(vb, "y", logits_, true);
  g.setInitialValue(vb, "batch", static_cast<double>(B));
  g.setInitialValue(vb, "relu", 0.0);
  seq.add(Program::Execute(cs_cb));
  const Tensor logits_out = logits_.rowRange(0, spec_.classes);
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
            plan->logits_.rowRange(0, spec.classes).bytes()) /
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
                          packBlocks(dense_w_, spec_.dense_wt.data()));
      break;
    case core::Method::kButterfly:
      for (std::size_t f = 0; f < bfly_w_.size(); ++f) {
        session.writeTensor(bfly_w_[f], spec_.butterfly_factors[f]);
      }
      break;
    case core::Method::kPixelfly:
      session.writeTensor(pf_w_, spec_.pf_blocks);
      if (spec_.pixelfly.low_rank > 0) {
        session.writeTensor(lr_vt_.w, packBlocks(lr_vt_, spec_.pf_vt.data()));
        session.writeTensor(lr_u_.w, packBlocks(lr_u_, spec_.pf_u.data()));
      }
      break;
    default:
      REPRO_REQUIRE(false, "unreachable serving method");
  }
  session.writeTensor(hidden_bias_, spec_.hidden_bias);
  session.writeTensor(cls_w_.w, packBlocks(cls_w_, spec_.classifier_wt.data()));
  std::vector<float> cb(Pad16(spec_.classes), 0.0f);
  std::copy(spec_.classifier_bias.begin(), spec_.classifier_bias.end(),
            cb.begin());
  session.writeTensor(cls_bias_, cb);
}

Matrix ModelPlan::RunBatch(ipu::Engine& engine, const Matrix& inputs,
                           ipu::RunReport* report) const {
  REPRO_REQUIRE(opts_.execute, "RunBatch on a timing-only plan");
  const std::size_t B = opts_.max_batch;
  const std::size_t rows = inputs.rows();
  REPRO_REQUIRE(rows >= 1 && rows <= B && inputs.cols() == spec_.input,
                "batch shape %zux%zu vs plan (<=%zu x %zu)", rows,
                inputs.cols(), B, spec_.input);
  // Transpose to feature-major, apply the butterfly input permutation
  // host-side, zero-pad unused batch columns.
  const bool permute = spec_.method == core::Method::kButterfly &&
                       spec_.butterfly_perm.size() == spec_.input;
  std::vector<float> xbuf(spec_.input * B, 0.0f);
  for (std::size_t i = 0; i < spec_.input; ++i) {
    const std::size_t src = permute ? spec_.butterfly_perm[i] : i;
    for (std::size_t j = 0; j < rows; ++j) {
      xbuf[i * B + j] = inputs(j, src);
    }
  }
  engine.writeTensor(x_, xbuf);
  ipu::RunReport r = engine.run();
  if (report != nullptr) *report = r;
  std::vector<float> lbuf(spec_.classes * B);
  engine.readTensor(logits_.rowRange(0, spec_.classes), lbuf);
  Matrix out(rows, spec_.classes);
  for (std::size_t c = 0; c < spec_.classes; ++c) {
    for (std::size_t j = 0; j < rows; ++j) {
      out(j, c) = lbuf[c * B + j];
    }
  }
  return out;
}

}  // namespace repro::serve
