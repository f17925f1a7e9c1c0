// The serving front end and its event loop: queue -> micro-batcher ->
// replica pipelines -> metrics, as one deterministic discrete-event
// simulation on the simulated clock.
//
// The loop serves slots. A slot is one backend behind its own bounded
// ingress queue and micro-batcher, reached from the front door over a
// request hop and answering over a response hop. serve::Server is one slot
// with zero hops; cluster::Router is a slot per chip with fabric hops. The
// front door places each arrival on a slot; a zero hop admits it in the
// same event. A full slot queue sheds the request (closed-loop clients are
// capped at the queue bound: the backpressure contract). Each slot
// dispatches a batch to its least-loaded free replica when the batch is
// full or its oldest request has waited out max_delay, and pipelines it
// through input link, compute and output link: streaming backends keep two
// batches in flight per replica, so one batch's input transfer hides behind
// the previous batch's compute (ServeMetrics::overlappedHostSeconds).
//
// Determinism contract: metrics and front-door calls derive only from the
// simulated event times of the single-threaded loop (ties break by event
// creation order), so the metrics and trace JSON are bitwise identical
// across host_threads for a fixed (seed, config). Host threads only replay
// the recorded batches through the replica engines to produce logits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "obs/trace.h"
#include "serve/backend.h"
#include "serve/batcher.h"
#include "serve/metrics.h"
#include "serve/replica_pool.h"
#include "serve/request.h"

namespace repro::serve {

// Open loop: `requests` Poisson arrivals at `qps` offered load; rejected
// requests are dropped (load shedding).
struct OpenLoopLoad {
  double qps = 1e5;
  std::size_t requests = 1000;
  std::uint64_t seed = 1;
};

// Closed loop: `clients` outstanding requests, each re-issued `think_s`
// after its completion, until `requests` total have been issued. Requires
// clients <= queue_capacity, so nothing is ever rejected.
struct ClosedLoopLoad {
  std::size_t clients = 8;
  std::size_t requests = 1000;
  double think_s = 0.0;
};

// One slot of the loop.
struct Slot {
  ExecutionBackend* backend = nullptr;  // not owned
  double request_hop_s = 0.0;           // front door -> slot
  double response_hop_s = 0.0;          // slot -> front door
  // Row of the run's per-backend breakdown (ServeMetrics::RegisterBackend)
  // this slot's batches are attributed to; kNoBackend attributes none.
  std::size_t metrics_row = ServeMetrics::kNoBackend;
};

// One dispatched batch, as the loop pipelined it on its replica.
struct BatchRun {
  std::size_t slot = 0;
  std::size_t replica = 0;
  std::uint64_t id = 0;       // dispatch order within the run
  double dispatch_s = 0.0;    // left the batcher
  double in_start_s = 0.0;    // input link phase start
  double comp_start_s = 0.0;  // compute phase start
  double out_start_s = 0.0;   // output link phase start
  // Input link time spent while the replica still computed the previous
  // batch: transfer hidden behind compute.
  double overlapped_s = 0.0;
  std::vector<Request> requests;
};

// Where requests enter and answers leave. Every hook is called from the
// loop's single thread in simulated-time order; times are seconds.
class FrontDoor {
 public:
  // The slot a new arrival at `now` is placed on.
  virtual std::size_t Route(const Request& req, double now) = 0;
  // The slot's queue admitted or shed `req` at `now` (after the request hop).
  virtual void Admitted(std::size_t slot, const Request& req, double now) = 0;
  virtual void Rejected(std::size_t slot, const Request& req, double now) = 0;
  virtual void Dispatched(const BatchRun& run) = 0;
  // `run` finished on its slot at `now`; its answers land at `done_s`.
  virtual void Completed(const BatchRun& run, double now, double done_s) = 0;
  // Every EventLoop::tick_interval_s of simulated time while requests are
  // still to be issued or answered (the router's autoscaler).
  virtual void Tick(double /*now*/) {}

 protected:
  ~FrontDoor() = default;  // doors live on the caller's stack
};

// The batch spans front doors draw: the batch's formation (oldest arrival
// to dispatch) on `lane`, its stream_in / device_run (category `cat`) /
// stream_out phases on `device` -- stream spans for streaming backends
// only -- and one count of `counter`. `lane_args` and `device_args` extend
// the formation and phase spans' arguments.
void TraceDispatch(obs::Tracer& tracer, obs::TraceTrack& lane,
                   obs::TraceTrack& device, const StreamProfile& profile,
                   const BatchRun& run, const char* cat, const char* counter,
                   const std::vector<obs::TraceArg>& lane_args = {},
                   const std::vector<obs::TraceArg>& device_args = {});

// The answer spans front doors draw for `run`, per request: its queue wait
// on `lane`, its device time on `device` (the end event carries the exact
// latency components the metrics recorded), the end of its request span on
// `lane` when the answer lands, and one count of `counter`.
void TraceAnswers(obs::Tracer& tracer, obs::TraceTrack& lane,
                  obs::TraceTrack& device, const char* counter,
                  const BatchRun& run, double now, double done_s);

// The loop's configuration; each Run serves one load from scratch.
struct EventLoop {
  std::vector<Slot> slots;
  BatchPolicy batch;
  // Admission bound per slot: requests that may wait behind the forming
  // batch before the slot sheds.
  std::size_t queue_capacity = 256;
  // Host workers for the numerics replay; 0 defers to REPRO_THREADS.
  // Never affects metrics or hook calls.
  std::size_t host_threads = 0;
  double tick_interval_s = std::numeric_limits<double>::infinity();

  // Serve one load behind `door`, recording into `metrics` (fresh, built at
  // batch.max_batch). `inputs` supplies request features: request i runs
  // row i % inputs->rows(), and every slot's model must take inputs->cols()
  // features and agree on the class count. Returns the replayed logits
  // (row = request id, rejected requests stay zero) when `inputs` has rows
  // and every slot can execute; otherwise a 0-row matrix.
  Matrix Run(const OpenLoopLoad& load, const Matrix* inputs, FrontDoor& door,
             ServeMetrics& metrics) const;
  Matrix Run(const ClosedLoopLoad& load, const Matrix* inputs,
             FrontDoor& door, ServeMetrics& metrics) const;
};

struct ServerConfig {
  BatchPolicy batch;
  std::size_t queue_capacity = 256;  // admission bound (backpressure)
  // Host workers for replaying batch numerics across replicas (execute
  // plans); 0 defers to REPRO_THREADS. Never affects the metrics.
  std::size_t host_threads = 0;
  // Optional trace sink (null = off): an ingress lane with request and
  // batch-formation spans plus a track per replica with its batch phases
  // and per-request device spans, under trace_pid, on the simulated clock.
  obs::Tracer* tracer = nullptr;
  std::size_t trace_pid = 0;
  std::string trace_label;
};

struct ServeResult {
  ServeMetrics metrics;
  Matrix logits;  // EventLoop::Run's replayed logits
};

class Server {
 public:
  // Serve any ExecutionBackend (not owned; must outlive the server).
  Server(ExecutionBackend& backend, ServerConfig config);

  // IPU convenience: wraps the pool in an owned IpuBackend. Identical
  // scheduling, metrics and trace bytes to the backend ctor.
  Server(ReplicaPool& pool, ServerConfig config);

  // `inputs` as for EventLoop::Run; nullptr serves timing only.
  ServeResult RunOpenLoop(const OpenLoopLoad& load,
                          const Matrix* inputs = nullptr);
  ServeResult RunClosedLoop(const ClosedLoopLoad& load,
                            const Matrix* inputs = nullptr);

 private:
  template <typename Load>
  ServeResult Run(const Load& load, const Matrix* inputs);

  std::unique_ptr<IpuBackend> owned_;  // pool ctor only
  ExecutionBackend* backend_;
  ServerConfig config_;
};

}  // namespace repro::serve
