// ModelPlan: one trained forward pass, lowered and compiled exactly once.
//
// Takes the ForwardSpec exported from a trained nn::Sequential (dense,
// butterfly, or pixelfly hidden layer) and builds the executing device
// graph for
//
//   logits = Wc * act + bc,  act = relu(hidden(x) + bh)
//
// in the feature-major layout (features x max_batch) the repo's lowerings
// use, bracketed by HostWrite/HostRead steps so every batch pays its
// host-link streaming cost. The graph is compiled at a fixed max_batch;
// smaller micro-batches run zero-padded (the batcher's occupancy histogram
// makes that padding visible).
//
// Replication: MakeReplica() spawns engines off the one compiled executable
// (Session::makeReplica) -- program, ledgers and exchange plans are shared.
// Build() writes the trained weights once, into the plan's session engine,
// and every replica shares that one host copy of them; each replica's
// activations, inputs and logits live in private storage, so a pool of
// replicas runs concurrently. The simulated ledger still charges every
// replica's tiles for its own weights. Capacity probes build timing-only
// plans on a carved-down tile slice (PlanOptions::num_tiles); a plan that
// fails to compile is how "this method does not fit K replicas per IPU" is
// detected (replica_pool.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ipusim/session.h"
#include "linalg/matrix.h"
#include "nn/export.h"
#include "serve/backend.h"
#include "serve/gemm_lowering.h"
#include "util/error.h"

namespace repro::serve {

struct PlanOptions {
  std::size_t max_batch = 32;
  // Execute arithmetic (serving) or timing/memory only (capacity probes).
  bool execute = true;
  // Bracket the forward pass with double-buffered StreamIn/StreamOut host
  // FIFOs (the default) instead of synchronous HostWrite/HostRead: batch
  // N+1's input transfer overlaps batch N's compute, so a busy replica's
  // steady-state period is max(link, compute) rather than link + compute.
  // The ledger charges each FIFO's second buffer. false keeps the per-batch
  // copy path, the comparison baseline bench_serving measures against.
  bool streaming = true;
  // 0 = whole device; otherwise the replica's tile-slice size.
  std::size_t num_tiles = 0;
  // Optional trace sink (SessionOptions passthrough): compile-pass spans
  // and the calibration run's BSP timeline land on trace_pid. Capacity
  // probes (ProbeMaxReplicas) always null it -- dozens of probe compiles
  // would bury the plan that actually serves.
  obs::Tracer* tracer = nullptr;
  std::size_t trace_pid = 0;
  std::string trace_label{};
  // Optional content-addressed compile cache (ipusim/exe_cache.h),
  // forwarded into SessionOptions::cache. One cache shared across the
  // capacity probe and the serving plan build means the probe's compiles
  // are never repeated by the plan that actually serves. Not owned.
  ipu::ExeCache* cache = nullptr;
};

class ModelPlan {
 public:
  // Lowers + compiles; OutOfMemory status when the graph does not fit the
  // (possibly carved-down) device.
  static StatusOr<std::unique_ptr<ModelPlan>> Build(
      const nn::ForwardSpec& spec, const ipu::IpuArch& arch,
      const PlanOptions& opts);

  const nn::ForwardSpec& spec() const { return spec_; }
  const PlanOptions& options() const { return opts_; }
  const ipu::IpuArch& arch() const { return arch_; }
  std::size_t maxBatch() const { return opts_.max_batch; }

  // Simulated cold (first-batch) service time of one (max_batch-shaped)
  // batch, including host-link input/output streaming. Constant per plan:
  // the cycle model is data-independent, so this is measured once at build
  // time. For streaming plans this is the un-overlapped end-to-end time;
  // the warm steady-state phase times live in streamProfile().
  double batchSeconds() const { return batch_seconds_; }
  ipu::GraphCounts counts() const { return session_->counts(); }

  // Per-batch phase decomposition for the streaming pipeline (the shared
  // serve::StreamProfile from backend.h; the nested name survives for
  // existing callers). A copy-path plan reports enabled = false with
  // in_s = out_s = 0 and compute_s = batchSeconds(), which makes the
  // serving scheduler's pipelined dispatch reproduce the unpipelined event
  // times exactly.
  using StreamProfile = serve::StreamProfile;
  const StreamProfile& streamProfile() const { return stream_profile_; }

  // The shared compile artifact and its save path (checkpointing; the
  // train_stream example round-trips plans through these).
  const ipu::Executable& executable() const { return session_->executable(); }
  Status SaveExecutable(const std::string& path) const {
    return session_->save(path);
  }

  // Fresh engine over the shared executable that reads this plan's trained
  // weights from the session engine's buffers (execute plans; timing-only
  // replicas carry no storage). `host_threads` bounds the replica's own
  // host-side parallelism -- the pool parallelises across replicas, so 1
  // keeps one replica = one worker.
  std::unique_ptr<ipu::Engine> MakeReplica(std::size_t host_threads = 1) const;

  // The plan's own session, whose engine holds the host copy of the
  // weights that replicas share. A write into it copies that buffer first,
  // so replicas already made keep the weights they had.
  ipu::Session& session() { return *session_; }

  // Runs one micro-batch (1..max_batch rows of spec().input features) on a
  // replica engine and returns its logits (rows x classes). Execute plans
  // only. The butterfly input permutation is applied host-side here, so
  // callers pass plain row-major features for every method.
  Matrix RunBatch(ipu::Engine& engine, const Matrix& inputs,
                  ipu::RunReport* report = nullptr) const;

 private:
  ModelPlan() = default;

  Status buildGraph();
  void buildDenseHidden(ipu::Program& seq);
  void buildButterflyHidden(ipu::Program& seq);
  void buildPixelflyHidden(ipu::Program& seq);
  // Writes the trained weights into the session engine (execute plans).
  void writeWeights();

  nn::ForwardSpec spec_;
  PlanOptions opts_;
  ipu::IpuArch arch_;                      // replica-slice arch
  std::unique_ptr<ipu::Session> session_;  // non-movable; owns graph+engine
  double batch_seconds_ = 0.0;
  StreamProfile stream_profile_;
  ipu::Tensor x_, hidden_;
  // Weight-upload handles; block-major GEMM weights carry their packing
  // geometry (serve/gemm_lowering.h).
  KSplitGemm dense_w_, lr_vt_, lr_u_;
  std::vector<ipu::Tensor> bfly_w_;  // per factor, (n/2) x 4
  ipu::Tensor pf_w_;                 // pattern.size() x b*b
  ipu::Tensor hidden_bias_;
  ClassifierHead cls_;  // weights, bias and the padded logits tensor
};

}  // namespace repro::serve
