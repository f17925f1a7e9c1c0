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
    core::ButterflyStages stages =
        core::AddButterflyStages(g, seq, "shard_b", xa_, /*parity=*/true);
    bfly_w_ = std::move(stages.w);
    ha_ = stages.y;
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

  hb_ = g.addVariable("shard_hin", mh, B);
  g.mapLinearly(hb_, B);
  seq.add(Program::HostWrite(hb_));

  // Bias + ReLU over the chip's summed hidden slice (the bias is applied
  // exactly once, after the inter-chip reduce).
  hidden_bias_ = serve::AddBiasRelu(g, seq, "shard", hb_);

  // Classifier k-split over the hidden slice: every chip emits full-height
  // partial logits; only chip 0 carries the real classifier bias so the
  // ring-reduce of partials reconstructs Wc*act + bc exactly once.
  cls_ = serve::AddClassifierHead(g, seq, "shard", hb_, spec_.classes);
  seq.add(Program::HostRead(cls_.logits.rowRange(0, spec_.classes)));

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
    eb.writeTensor(cls_.w.w, serve::PackGemmBlocks(cls_.w, cslice.data()));
    std::vector<float> cb(cp, 0.0f);
    if (c == 0) {
      std::copy(spec_.classifier_bias.begin(), spec_.classifier_bias.end(),
                cb.begin());
    }
    eb.writeTensor(cls_.bias, cb);
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
  const std::vector<float> xbuf = serve::FeatureMajorBatch(spec_, inputs, B);

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

  // Host-side cross-chip butterfly factors, in factor order, through the
  // Butterfly2x2 codelet's own arithmetic: factor f pairs row base + i with
  // base + s + i (s = 2^f) in each 2s-row block, pairs base/2 + i.
  if (spec_.method == core::Method::kButterfly) {
    const std::size_t n = spec_.hidden;
    for (std::size_t f = Log2(n / C); f < Log2(n); ++f) {
      const std::size_t s = std::size_t{1} << f;
      const std::span<const float> w(spec_.butterfly_factors[f]);
      for (std::size_t base = 0; base < n; base += 2 * s) {
        const std::span<float> top(h.data() + base * B, s * B);
        const std::span<float> bot(h.data() + (base + s) * B, s * B);
        ipu::ButterflyCore(B, w.subspan(base / 2 * 4, s * 4), top, bot, top,
                           bot);
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
    engines_b_[c]->readTensor(cls_.logits.rowRange(0, spec_.classes), lpart);
    for (std::size_t i = 0; i < lsum.size(); ++i) lsum[i] += lpart[i];
  }

  return serve::RowMajorLogits(lsum, spec_.classes, B, inputs.rows());
}

}  // namespace repro::cluster
