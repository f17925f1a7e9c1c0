// ShardPlan: one logical serving model split tensor-parallel across the
// chips of a simulated IPU cluster.
//
// The single-chip serve::ModelPlan compiles the whole forward pass onto one
// GC200; a ShardPlan splits it across 2..16 chips connected by the
// ipu::LinkFabric and keeps the numerics verifiably close to the unsharded
// plan (tests pin sharded-vs-unsharded logit parity):
//
//  * butterfly hidden layers shard **by block**: chip c owns the n/C
//    contiguous rows of the (permuted) activation, so every factor with
//    stride < n/C is chip-local compute; the top log2(C) factors pair rows
//    on different chips and become pairwise link exchanges (chip c swaps
//    its block with chip c ^ 2^j). This is the butterfly-identification
//    structure (Le/Zheng/Riccietti/Gribonval): the factor support tells
//    exactly which stages are safe to split and which must cross the
//    fabric.
//  * dense hidden layers shard **by k**: chip c holds the input-column
//    slice W[:, c] and computes a full-height partial; a ring
//    reduce-scatter over the fabric leaves each chip with its summed slice
//    of the activation.
//  * the classifier GEMM always shards by k over the hidden slices, and
//    the partial logits ring-reduce to the egress chip.
//
// Per-chip compute runs as two compiled stage executables (pre-exchange and
// post-exchange) shared across chips via Session::makeReplica -- one
// compile, C engines with private weight-slice storage. Collective numerics
// are applied host-side in a fixed chip order with the exact device
// arithmetic, and every collective is costed through the LinkFabric on the
// same virtual clock as the BSP engine, so batchSeconds() and the recorded
// FabricSteps are deterministic doubles.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/link_fabric.h"
#include "ipusim/session.h"
#include "linalg/matrix.h"
#include "nn/export.h"
#include "serve/gemm_lowering.h"
#include "util/error.h"

namespace repro::cluster {

struct ShardOptions {
  std::size_t num_chips = 4;  // power of two in [2, 16]
  std::size_t max_batch = 32;
  // Link bandwidth/latency; num_ipus is overridden with num_chips.
  ipu::LinkFabricConfig fabric;
  // Optional trace sink: stage-A/stage-B compile passes + calibration BSP
  // timelines land on trace_pid and trace_pid + 1, the fabric collective
  // steps on a dedicated "fabric" track of trace_pid.
  obs::Tracer* tracer = nullptr;
  std::size_t trace_pid = 0;
  std::string trace_label;
  ipu::ExeCache* cache = nullptr;  // compile cache passthrough (not owned)
};

class ShardPlan {
 public:
  // Splits `spec` across opts.num_chips identical `arch` chips. Supported
  // methods: Baseline (k-split) and Butterfly (block split); hidden/input
  // widths must divide evenly by the chip count.
  static StatusOr<std::unique_ptr<ShardPlan>> Build(
      const nn::ForwardSpec& spec, const ipu::IpuArch& arch,
      const ShardOptions& opts);

  const nn::ForwardSpec& spec() const { return spec_; }
  const ShardOptions& options() const { return opts_; }
  const ipu::LinkFabric& fabric() const { return fabric_; }
  std::size_t numChips() const { return opts_.num_chips; }

  // Simulated per-batch service time of the sharded pipeline:
  // stage-A compute + inter-chip collectives + stage-B compute. Constant
  // per plan (the cycle model is data-independent), measured at build.
  double batchSeconds() const { return batch_seconds_; }
  double stageASeconds() const { return stage_a_seconds_; }
  double stageBSeconds() const { return stage_b_seconds_; }
  double fabricSeconds() const { return fabric_seconds_; }
  // The collective schedule, in execution order.
  const std::vector<ipu::FabricStep>& fabricSteps() const { return steps_; }

  // Runs one micro-batch (1..max_batch rows of spec().input features)
  // through all chips -- per-chip device stages plus host-side collective
  // numerics -- and returns logits (rows x classes). Deterministic and
  // single-threaded; tests hold it bitwise-near the unsharded ModelPlan.
  Matrix RunBatch(const Matrix& inputs) const;

 private:
  ShardPlan() = default;

  Status buildStageA();
  Status buildStageB();
  void buildFabricSchedule();
  void writeChipWeights();

  nn::ForwardSpec spec_;
  ShardOptions opts_;
  ipu::IpuArch arch_;
  ipu::LinkFabric fabric_{ipu::LinkFabricConfig{}};

  // Stage A: input slice -> chip-local hidden compute (butterfly local
  // factors / dense k-split partial).
  std::unique_ptr<ipu::Session> stage_a_;
  ipu::Tensor xa_, ha_;                   // input slice, stage-A output
  std::vector<ipu::Tensor> bfly_w_;      // per local factor
  serve::KSplitGemm dense_w_;
  std::size_t stage_a_out_rows_ = 0;

  // Stage B: summed hidden slice -> bias/relu -> classifier partial.
  std::unique_ptr<ipu::Session> stage_b_;
  ipu::Tensor hb_, hidden_bias_;
  serve::ClassifierHead cls_;

  std::vector<std::unique_ptr<ipu::Engine>> engines_a_;  // one per chip
  std::vector<std::unique_ptr<ipu::Engine>> engines_b_;

  double stage_a_seconds_ = 0.0;
  double stage_b_seconds_ = 0.0;
  double fabric_seconds_ = 0.0;
  double batch_seconds_ = 0.0;
  std::vector<ipu::FabricStep> steps_;
};

}  // namespace repro::cluster
