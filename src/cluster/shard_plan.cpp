#include "cluster/shard_plan.h"

#include <algorithm>
#include <utility>

#include "core/ipu_lowering.h"
#include "ipusim/codelet.h"
#include "obs/trace.h"
#include "util/bitops.h"

namespace repro::cluster {
namespace {

using ipu::Graph;
using ipu::Program;
using ipu::Tensor;

std::size_t Pad16(std::size_t x) { return CeilDiv(x, 16) * 16; }

ipu::SessionOptions StageSessionOptions(const ShardOptions& opts,
                                        std::size_t pid_offset,
                                        const char* stage) {
  ipu::SessionOptions so;
  so.execute = true;
  so.fast_repeat = true;
  so.host_threads = 1;
  so.tracer = opts.tracer;
  so.trace_pid = opts.trace_pid + pid_offset;
  so.trace_label =
      (opts.trace_label.empty() ? std::string("shard") : opts.trace_label) +
      ":" + stage;
  so.cache = opts.cache;
  return so;
}

}  // namespace

StatusOr<std::unique_ptr<ShardPlan>> ShardPlan::Build(
    const nn::ForwardSpec& spec, const ipu::IpuArch& arch,
    const ShardOptions& opts) {
  const std::size_t C = opts.num_chips;
  if (C < 2 || C > 16 || !IsPow2(C)) {
    return Status::InvalidArgument("num_chips must be a power of two in [2,16]");
  }
  REPRO_REQUIRE(opts.max_batch > 0, "max_batch must be positive");
  REPRO_REQUIRE(spec.hidden > 0 && spec.input > 0 && spec.classes > 0,
                "empty forward spec");
  if (spec.method != core::Method::kBaseline &&
      spec.method != core::Method::kButterfly) {
    return Status::InvalidArgument(
        "shard plans support Baseline (k-split) and Butterfly (block split)");
  }
  if (spec.input % C != 0 || spec.hidden % C != 0) {
    return Status::InvalidArgument(
        "input and hidden widths must divide the chip count");
  }
  if (spec.method == core::Method::kButterfly) {
    if (spec.input != spec.hidden || !IsPow2(spec.hidden)) {
      return Status::InvalidArgument(
          "butterfly sharding needs a square power-of-two hidden layer");
    }
    if (spec.hidden / C < 2) {
      return Status::InvalidArgument(
          "butterfly block split needs at least 2 rows per chip");
    }
    REPRO_REQUIRE(spec.butterfly_factors.size() == Log2(spec.hidden),
                  "butterfly factor count mismatch");
  }

  std::unique_ptr<ShardPlan> plan(new ShardPlan());
  plan->spec_ = spec;
  plan->opts_ = opts;
  plan->arch_ = arch;
  ipu::LinkFabricConfig fc = opts.fabric;
  fc.num_ipus = C;
  plan->fabric_ = ipu::LinkFabric(fc);

  plan->stage_a_ =
      std::make_unique<ipu::Session>(arch, StageSessionOptions(opts, 0, "a"));
  Status st = plan->buildStageA();
  if (!st.ok()) return st;
  plan->stage_a_seconds_ = plan->stage_a_->run().seconds(arch);

  plan->stage_b_ =
      std::make_unique<ipu::Session>(arch, StageSessionOptions(opts, 1, "b"));
  st = plan->buildStageB();
  if (!st.ok()) return st;
  plan->stage_b_seconds_ = plan->stage_b_->run().seconds(arch);

  // All chips run the same compiled stage executables; makeReplica shares
  // the program, and writing each chip's weight slice gives that chip a
  // private copy of the weight buffers (copy-on-write).
  for (std::size_t c = 0; c < C; ++c) {
    plan->engines_a_.push_back(plan->stage_a_->makeReplica(1));
    plan->engines_b_.push_back(plan->stage_b_->makeReplica(1));
  }
  plan->writeChipWeights();

  plan->buildFabricSchedule();
  plan->batch_seconds_ = plan->stage_a_seconds_ + plan->fabric_seconds_ +
                         plan->stage_b_seconds_;
  return StatusOr<std::unique_ptr<ShardPlan>>(std::move(plan));
}

Status ShardPlan::buildStageA() {
  Graph& g = stage_a_->graph();
  const std::size_t B = opts_.max_batch;
  const std::size_t C = opts_.num_chips;
  Program seq = Program::Sequence({});

  if (spec_.method == core::Method::kButterfly) {
    // Block split: the chip holds m = n/C contiguous (permuted) activation
    // rows. Every factor with stride < m pairs rows inside the block, so
    // the local stage is the unsharded butterfly lowering at width m.
    const std::size_t m = spec_.hidden / C;
    xa_ = g.addVariable("shard_x", m, B);
    g.mapLinearly(xa_, B);
    seq.add(Program::HostWrite(xa_));
    const std::size_t local_factors = Log2(m);
    const double cpm = core::ButterflyCyclesPerMac(m, opts_.poptorch_parity);
    Tensor cur = xa_;
    for (std::size_t f = 0; f < local_factors; ++f) {
      Tensor w = g.addVariable("shard_bw" + std::to_string(f), m / 2, 4);
      g.mapLinearly(w, 4);
      bfly_w_.push_back(w);
      if (opts_.poptorch_parity) {
        Tensor staged =
            g.addVariable("shard_bstage" + std::to_string(f), m, B);
        if (f % 2 == 0) {
          core::MapRowsOffset(g, staged, m);
        } else {
          g.mapLinearly(staged, B);
        }
        seq.add(Program::Copy(cur, staged));
        cur = staged;
      }
      ipu::ComputeSetId cs =
          core::AddPairStage(g, cur, m, B, std::size_t{1} << f,
                             ipu::codelets::kButterfly2x2, &w, cpm);
      seq.add(Program::Execute(cs));
    }
    ha_ = cur;
    stage_a_out_rows_ = m;
    seq.add(Program::HostRead(ha_));
  } else {
    // k-split: the chip holds the input-column slice W[:, c] and computes a
    // full-height partial activation; the fabric reduce sums the partials.
    const std::size_t ks = spec_.input / C;
    xa_ = g.addVariable("shard_x", ks, B);
    g.mapLinearly(xa_, B);
    seq.add(Program::HostWrite(xa_));
    ha_ = g.addVariable("shard_h", Pad16(spec_.hidden), B);
    g.mapLinearly(ha_, B);
    dense_w_ = serve::AddKSplitGemm(g, seq, "shard_dense", xa_, ha_,
                                    spec_.hidden, ks,
                                    /*accumulate=*/false, B);
    stage_a_out_rows_ = spec_.hidden;
    seq.add(Program::HostRead(ha_.rowRange(0, spec_.hidden)));
  }
  return stage_a_->compile(std::move(seq));
}

Status ShardPlan::buildStageB() {
  Graph& g = stage_b_->graph();
  const std::size_t B = opts_.max_batch;
  const std::size_t mh = spec_.hidden / opts_.num_chips;
  Program seq = Program::Sequence({});

  hb_ = g.addVariable("shard_hb", mh, B);
  g.mapLinearly(hb_, B);
  seq.add(Program::HostWrite(hb_));

  // Bias + ReLU over the chip's summed hidden slice (the bias is applied
  // exactly once, after the inter-chip reduce).
  hidden_bias_ = g.addVariable("shard_hbias", mh);
  g.mapLinearly(hidden_bias_, 1);
  ipu::ComputeSetId cs_bias = g.addComputeSet("shard_bias_relu");
  const std::size_t rows_per_tile =
      std::max<std::size_t>(1, CeilDiv(mh, g.arch().num_tiles));
  for (std::size_t r = 0; r < mh; r += rows_per_tile) {
    const std::size_t count = std::min(rows_per_tile, mh - r);
    const std::size_t tile = g.tileOfElement(hb_, r * B);
    ipu::VertexId v = g.addVertex(cs_bias, ipu::codelets::kBiasRelu, tile);
    g.connect(v, "bias", hidden_bias_.slice(r, count));
    g.connect(v, "x", hb_.rowRange(r, count));
    g.connect(v, "y", hb_.rowRange(r, count), true);
    g.setInitialValue(v, "batch", static_cast<double>(B));
    g.setInitialValue(v, "relu", 1.0);
  }
  seq.add(Program::Execute(cs_bias));

  // Classifier k-split over the hidden slice: every chip emits full-height
  // partial logits; only chip 0 carries the real classifier bias so the
  // ring-reduce of partials reconstructs Wc*act + bc exactly once.
  const std::size_t cp = Pad16(spec_.classes);
  logits_ = g.addVariable("shard_logits", cp, B);
  g.mapLinearly(logits_, B);
  cls_w_ = serve::AddKSplitGemm(g, seq, "shard_cls", hb_, logits_,
                                spec_.classes, mh, /*accumulate=*/false, B);
  cls_bias_ = g.addVariable("shard_cbias", cp);
  g.mapLinearly(cls_bias_, 1);
  ipu::ComputeSetId cs_cb = g.addComputeSet("shard_cls_bias");
  ipu::VertexId vb =
      g.addVertex(cs_cb, ipu::codelets::kBiasRelu, g.tileOfElement(logits_, 0));
  g.connect(vb, "bias", cls_bias_);
  g.connect(vb, "x", logits_);
  g.connect(vb, "y", logits_, true);
  g.setInitialValue(vb, "batch", static_cast<double>(B));
  g.setInitialValue(vb, "relu", 0.0);
  seq.add(Program::Execute(cs_cb));
  seq.add(Program::HostRead(logits_.rowRange(0, spec_.classes)));

  return stage_b_->compile(std::move(seq));
}

void ShardPlan::writeChipWeights() {
  const std::size_t C = opts_.num_chips;
  const std::size_t cp = Pad16(spec_.classes);
  const std::size_t mh = spec_.hidden / C;
  for (std::size_t c = 0; c < C; ++c) {
    ipu::Engine& ea = *engines_a_[c];
    if (spec_.method == core::Method::kButterfly) {
      const std::size_t m = spec_.hidden / C;
      for (std::size_t f = 0; f < bfly_w_.size(); ++f) {
        // Block-aligned strides keep each chip's pair range contiguous:
        // local pair p' is global pair c*m/2 + p'.
        const float* src =
            spec_.butterfly_factors[f].data() + c * (m / 2) * 4;
        ea.writeTensor(bfly_w_[f],
                       std::span<const float>(src, (m / 2) * 4));
      }
    } else {
      const std::size_t ks = spec_.input / C;
      std::vector<float> wslice(spec_.hidden * ks);
      for (std::size_t i = 0; i < spec_.hidden; ++i) {
        for (std::size_t j = 0; j < ks; ++j) {
          wslice[i * ks + j] = spec_.dense_wt(i, c * ks + j);
        }
      }
      ea.writeTensor(dense_w_.w, serve::PackGemmBlocks(dense_w_, wslice.data()));
    }

    ipu::Engine& eb = *engines_b_[c];
    eb.writeTensor(hidden_bias_,
                   std::span<const float>(
                       spec_.hidden_bias.data() + c * mh, mh));
    std::vector<float> cslice(spec_.classes * mh);
    for (std::size_t i = 0; i < spec_.classes; ++i) {
      for (std::size_t j = 0; j < mh; ++j) {
        cslice[i * mh + j] = spec_.classifier_wt(i, c * mh + j);
      }
    }
    eb.writeTensor(cls_w_.w, serve::PackGemmBlocks(cls_w_, cslice.data()));
    std::vector<float> cb(cp, 0.0f);
    if (c == 0) {
      std::copy(spec_.classifier_bias.begin(), spec_.classifier_bias.end(),
                cb.begin());
    }
    eb.writeTensor(cls_bias_, cb);
  }
}

void ShardPlan::buildFabricSchedule() {
  const std::size_t B = opts_.max_batch;
  const std::size_t C = opts_.num_chips;
  steps_.clear();
  if (spec_.method == core::Method::kButterfly) {
    // The top log2(C) factors pair row r with r ^ 2^f; with block split the
    // whole block swaps with chip c ^ (2^f / m): a pairwise exchange of the
    // chip's m x B activation slab per cross factor.
    const std::size_t m = spec_.hidden / C;
    const std::size_t total_factors = Log2(spec_.hidden);
    for (std::size_t f = Log2(m); f < total_factors; ++f) {
      const std::size_t dist = (std::size_t{1} << f) / m;
      const std::size_t bytes = m * B * sizeof(float);
      steps_.push_back(ipu::FabricStep{
          .name = "butterfly_exchange[f=" + std::to_string(f) + "]",
          .bytes = bytes,
          .hops = fabric_.RingHops(0, dist % C),
          .seconds = fabric_.PairwiseExchangeSeconds(bytes, dist),
      });
    }
  } else {
    const std::size_t bytes = spec_.hidden * B * sizeof(float);
    steps_.push_back(ipu::FabricStep{
        .name = "hidden_reduce_scatter",
        .bytes = bytes,
        .hops = C - 1,
        .seconds = fabric_.RingReduceScatterSeconds(bytes),
    });
  }
  const std::size_t lbytes = spec_.classes * B * sizeof(float);
  steps_.push_back(ipu::FabricStep{
      .name = "logits_reduce",
      .bytes = lbytes,
      .hops = C - 1,
      .seconds = fabric_.RingReduceSeconds(lbytes),
  });
  fabric_seconds_ = 0.0;
  for (const ipu::FabricStep& s : steps_) fabric_seconds_ += s.seconds;

  if (opts_.tracer != nullptr) {
    // Lay the collective spans on the shared virtual clock: hidden-stage
    // collectives right after stage A, the logits reduce after stage B.
    obs::TraceTrack& track = opts_.tracer->track(
        opts_.trace_pid, 7,
        opts_.trace_label.empty() ? "shard" : opts_.trace_label, "fabric");
    double cursor_us = stage_a_seconds_ * 1e6;
    for (const ipu::FabricStep& s : steps_) {
      if (s.name == "logits_reduce") cursor_us += stage_b_seconds_ * 1e6;
      track.Complete(s.name, "fabric", cursor_us, s.seconds * 1e6,
                     {obs::Arg("bytes", static_cast<std::uint64_t>(s.bytes)),
                      obs::Arg("hops", static_cast<std::uint64_t>(s.hops))});
      cursor_us += s.seconds * 1e6;
    }
  }
}

Matrix ShardPlan::RunBatch(const Matrix& inputs) const {
  const std::size_t B = opts_.max_batch;
  const std::size_t C = opts_.num_chips;
  const std::size_t rows = inputs.rows();
  REPRO_REQUIRE(rows >= 1 && rows <= B && inputs.cols() == spec_.input,
                "batch shape %zux%zu vs plan (<=%zu x %zu)", rows,
                inputs.cols(), B, spec_.input);
  // Same host-side preparation as the unsharded plan: feature-major
  // transpose, butterfly input permutation, zero-pad unused batch columns.
  const bool permute = spec_.method == core::Method::kButterfly &&
                       spec_.butterfly_perm.size() == spec_.input;
  std::vector<float> xbuf(spec_.input * B, 0.0f);
  for (std::size_t i = 0; i < spec_.input; ++i) {
    const std::size_t src = permute ? spec_.butterfly_perm[i] : i;
    for (std::size_t j = 0; j < rows; ++j) {
      xbuf[i * B + j] = inputs(j, src);
    }
  }

  // Stage A on every chip over its input slice.
  const std::size_t in_slice = spec_.input / C;
  std::vector<float> h(spec_.hidden * B, 0.0f);
  std::vector<float> partial(stage_a_out_rows_ * B);
  for (std::size_t c = 0; c < C; ++c) {
    engines_a_[c]->writeTensor(
        xa_, std::span<const float>(xbuf.data() + c * in_slice * B,
                                    in_slice * B));
    engines_a_[c]->run();
    engines_a_[c]->readTensor(ha_.rowRange(0, stage_a_out_rows_), partial);
    if (spec_.method == core::Method::kButterfly) {
      std::copy(partial.begin(), partial.end(),
                h.begin() + c * stage_a_out_rows_ * B);
    } else {
      // Fixed chip-order sum: the collective numerics are the device's
      // float adds applied in ring order, so replays are deterministic.
      for (std::size_t i = 0; i < partial.size(); ++i) h[i] += partial[i];
    }
  }

  // Host-side cross-chip butterfly factors: identical arithmetic to the
  // ButterflyCore codelet (read both endpoints, then write), applied in
  // factor order.
  if (spec_.method == core::Method::kButterfly) {
    const std::size_t n = spec_.hidden;
    const std::size_t m = n / C;
    const std::size_t total_factors = Log2(n);
    for (std::size_t f = Log2(m); f < total_factors; ++f) {
      const std::size_t s = std::size_t{1} << f;
      const std::vector<float>& w = spec_.butterfly_factors[f];
      for (std::size_t p = 0; p < n / 2; ++p) {
        const std::size_t top = (p / s) * 2 * s + (p % s);
        const std::size_t bot = top + s;
        const float a = w[4 * p + 0];
        const float b = w[4 * p + 1];
        const float cc = w[4 * p + 2];
        const float d = w[4 * p + 3];
        for (std::size_t j = 0; j < B; ++j) {
          const float t = h[top * B + j];
          const float u = h[bot * B + j];
          h[top * B + j] = a * t + b * u;
          h[bot * B + j] = cc * t + d * u;
        }
      }
    }
  }

  // Stage B on every chip over its summed hidden slice; the partial logits
  // ring-reduce (chip-order float sum) to the egress chip.
  const std::size_t mh = spec_.hidden / C;
  std::vector<float> lsum(spec_.classes * B, 0.0f);
  std::vector<float> lpart(spec_.classes * B);
  for (std::size_t c = 0; c < C; ++c) {
    engines_b_[c]->writeTensor(
        hb_, std::span<const float>(h.data() + c * mh * B, mh * B));
    engines_b_[c]->run();
    engines_b_[c]->readTensor(logits_.rowRange(0, spec_.classes), lpart);
    for (std::size_t i = 0; i < lsum.size(); ++i) lsum[i] += lpart[i];
  }

  Matrix out(rows, spec_.classes);
  for (std::size_t k = 0; k < spec_.classes; ++k) {
    for (std::size_t j = 0; j < rows; ++j) {
      out(j, k) = lsum[k * B + j];
    }
  }
  return out;
}

}  // namespace repro::cluster
