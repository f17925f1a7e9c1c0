// serve::ExecutionBackend: the device-facing surface the serving stack
// schedules against.
//
// The DES scheduler (server.h), micro-batcher, metrics and tracer only ever
// need five facts about a deployed model: its spec, the compiled max batch,
// how long one batch takes (split into the three pipeline phases: input
// link, compute, output link), how many replicas run concurrently, and --
// for execute plans -- how to replay a batch's numerics. This interface
// pins exactly that surface, so a router chip slot or a single-chip server
// can be IPU- or GPU-backed without the scheduler knowing which.
//
//  * IpuBackend wraps a compiled serve::ModelPlan + ReplicaPool: the
//    existing BSP-simulated serving path, unchanged observationally (the
//    ServeMetrics/trace JSON is byte-identical to the pre-interface code --
//    scripts/check.sh gates it against checked-in goldens).
//  * gpu::GpuBackend (gpusim/gpu_backend.h) prices the same ForwardSpec
//    through the A30 roofline models instead of running it: a timing-only
//    backend whose capacity comes from HBM footprint and SM concurrency.
//
// The placer (cluster/placer.h) consumes the same surface to decide which
// substrate a model variant should serve from -- the paper's IPU-vs-GPU
// crossover as a deployment-time cost decision.
#pragma once

#include <cstddef>
#include <memory>

#include "linalg/matrix.h"
#include "nn/export.h"

namespace repro::serve {

class ModelPlan;
class ReplicaPool;

// Per-batch phase decomposition for the pipelined dispatch: input link
// time, device compute time, output link time. A backend without a
// double-buffered ingress reports enabled = false with in_s = out_s = 0 and
// compute_s = batchSeconds(); the scheduler's pipelined dispatch formulas
// then reproduce the unpipelined event times exactly.
struct StreamProfile {
  bool enabled = false;
  double in_s = 0.0;
  double compute_s = 0.0;
  double out_s = 0.0;
};

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  // Short substrate label ("ipu", "gpu"): trace track names, metrics
  // breakdown keys, placer decisions.
  virtual const char* name() const = 0;

  // The deployed model (shapes for fabric hops and the numerics replay).
  virtual const nn::ForwardSpec& spec() const = 0;

  // The compiled/captured batch shape; smaller micro-batches run padded.
  virtual std::size_t maxBatch() const = 0;

  // Cold (un-overlapped) end-to-end time of one max_batch-shaped batch.
  virtual double batchSeconds() const = 0;

  // Warm steady-state phase split of batchSeconds() (see StreamProfile).
  virtual const StreamProfile& streamProfile() const = 0;

  // Concurrent batch executors this backend instance actually runs (pool
  // size on the IPU, resident-batch concurrency on the GPU).
  virtual std::size_t replicas() const = 0;

  // How many replicas one device could host (capacity probe result /
  // HBM + SM-concurrency bound) -- the placer's throughput lever.
  virtual std::size_t maxReplicasPerDevice() const = 0;

  // Per-replica memory footprint in bytes (graph ledger / weights +
  // workspace), the denominator behind maxReplicasPerDevice().
  virtual std::size_t replicaMemoryBytes() const = 0;

  // Whether ExecuteBatch replays real numerics. Timing-only backends
  // (capacity probes, the GPU roofline) return false and the scheduler
  // skips the logits replay.
  virtual bool canExecute() const = 0;

  // Runs one micro-batch (rows x spec().input) on replica `replica` and
  // returns its logits (rows x spec().classes). Only called when
  // canExecute(); different replicas may execute concurrently, one replica
  // stays sequential.
  virtual Matrix ExecuteBatch(std::size_t replica, const Matrix& inputs) = 0;
};

// The IPU serving path behind the interface: a compiled ModelPlan plus
// (optionally) the ReplicaPool instantiated from it. Without a pool the
// backend is scoring-only (the placer compares plans before spending the
// engines). Neither is owned.
class IpuBackend final : public ExecutionBackend {
 public:
  // `max_replicas_per_device` carries the capacity-probe result for the
  // placer; 0 falls back to the attached pool's size.
  explicit IpuBackend(const ModelPlan& plan, ReplicaPool* pool = nullptr,
                      std::size_t max_replicas_per_device = 0);

  const ModelPlan& plan() const { return *plan_; }

  const char* name() const override { return "ipu"; }
  const nn::ForwardSpec& spec() const override;
  std::size_t maxBatch() const override;
  double batchSeconds() const override;
  const StreamProfile& streamProfile() const override;
  std::size_t replicas() const override;
  std::size_t maxReplicasPerDevice() const override;
  std::size_t replicaMemoryBytes() const override;
  bool canExecute() const override;
  Matrix ExecuteBatch(std::size_t replica, const Matrix& inputs) override;

 private:
  const ModelPlan* plan_;
  ReplicaPool* pool_;
  std::size_t max_replicas_;
};

}  // namespace repro::serve
