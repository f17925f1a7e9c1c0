// Serving metrics: what the operator of the replica pool watches.
//
//  * throughput (completed / horizon, in simulated seconds),
//  * batch-occupancy histogram (how much of each compiled max-batch slot the
//    micro-batcher actually fills -- the padding the fixed-shape graph pays),
//  * p50/p95/p99 end-to-end latency (nearest-rank over completed requests),
//  * rejected-request count (admission-control load shedding).
//
// Everything derives from simulated event times recorded by the
// single-threaded scheduler, so ToJson() is bitwise identical for a given
// (seed, config) regardless of host thread count -- the determinism contract
// test_serve.cpp pins down.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace repro::obs {
class Tracer;
class TraceTrack;
}  // namespace repro::obs

namespace repro::serve {

class ServeMetrics {
 public:
  explicit ServeMetrics(std::size_t max_batch);

  // Optional trace sink: invariant violations become instant error events on
  // `track` plus a "serve.invariant_violations" counter. Either may be null.
  void AttachTracer(obs::Tracer* tracer, obs::TraceTrack* track) {
    tracer_ = tracer;
    track_ = track;
  }

  // Declares an execution-backend label ("ipu", "gpu") for the per-backend
  // occupancy/padding breakdown and returns its index for RecordBatchFor.
  // Re-registering a label returns the existing index (two IPU chips share
  // one row). When nothing is registered ToJson() omits the "backends"
  // section entirely, so single-backend servers keep their historical JSON
  // byte for byte.
  std::size_t RegisterBackend(const std::string& label);
  std::size_t registeredBackends() const { return backends_.size(); }

  void RecordAdmitted() { ++admitted_; }
  void RecordRejected() { ++rejected_; }
  // One dispatched micro-batch with `occupancy` real requests (the rest of
  // the compiled max-batch shape is padding). Occupancy outside
  // [1, max_batch] is a server-side invariant violation: it is counted,
  // surfaced as a traced error event (when a tracer is attached), and the
  // batch is excluded from the occupancy accounting -- serving keeps going
  // instead of aborting. Returns whether the batch was accepted. `now_s`
  // timestamps the error event on the serving clock.
  bool RecordBatch(std::size_t occupancy, double now_s = 0.0);
  // RecordBatch plus per-backend attribution: the batch lands in both the
  // aggregate accounting and the `backend` row (an index from
  // RegisterBackend, or kNoBackend for the aggregate alone).
  static constexpr std::size_t kNoBackend = static_cast<std::size_t>(-1);
  bool RecordBatchFor(std::size_t backend, std::size_t occupancy,
                      double now_s = 0.0);
  // One completed request: end-to-end latency and its queue-wait component.
  void RecordCompletion(double latency_s, double queue_delay_s);
  // Host-link transfer time hidden behind replica compute by the streaming
  // ingress path (seconds, accumulated per dispatched batch). Stays zero on
  // the per-batch copy path.
  void RecordOverlap(double overlapped_s) { overlapped_host_s_ += overlapped_s; }
  // Called once at end of run with the simulated makespan.
  void Finalize(double horizon_s);

  std::size_t admitted() const { return admitted_; }
  std::size_t rejected() const { return rejected_; }
  std::size_t completed() const { return latencies_.size(); }
  std::size_t batches() const { return batches_; }
  // Rejected RecordBatch calls (occupancy outside [1, max_batch]).
  std::size_t invariantViolations() const { return invariant_violations_; }
  // End-to-end latencies in completion order, seconds.
  const std::vector<double>& latencies() const { return latencies_; }
  double horizonSeconds() const { return horizon_s_; }
  // Completed requests per simulated second.
  double qps() const;
  // Nearest-rank percentile of end-to-end latency, p in (0, 100].
  double LatencyPercentile(double p) const;
  double meanLatency() const;
  double maxLatency() const;
  double meanQueueDelay() const;
  // Total host-link seconds hidden behind compute (streaming ingress).
  double overlappedHostSeconds() const { return overlapped_host_s_; }
  // Mean real requests per dispatched batch.
  double meanOccupancy() const;
  // Fraction of executed batch slots that were padding.
  double paddingFraction() const;
  // hist[k] = number of batches that carried exactly k requests, k in
  // [0, max_batch].
  const std::vector<std::size_t>& occupancyHist() const { return occ_hist_; }

  // Flat JSON object; stable key order, %.17g doubles (round-trip exact).
  std::string ToJson() const;

 private:
  // One row of the per-backend breakdown: batches and slot occupancy
  // attributed to one substrate label.
  struct BackendSlice {
    std::string label;
    std::size_t batches = 0;
    std::size_t occupied_slots = 0;
  };

  std::size_t max_batch_;
  std::size_t admitted_ = 0;
  std::size_t rejected_ = 0;
  std::size_t batches_ = 0;
  std::size_t occupied_slots_ = 0;
  double horizon_s_ = 0.0;
  double latency_sum_s_ = 0.0;
  double latency_max_s_ = 0.0;
  double queue_delay_sum_s_ = 0.0;
  double overlapped_host_s_ = 0.0;
  std::size_t invariant_violations_ = 0;
  std::vector<double> latencies_;  // completion order
  std::vector<std::size_t> occ_hist_;
  std::vector<BackendSlice> backends_;  // empty = no breakdown in ToJson()
  obs::Tracer* tracer_ = nullptr;
  obs::TraceTrack* track_ = nullptr;
};

}  // namespace repro::serve
