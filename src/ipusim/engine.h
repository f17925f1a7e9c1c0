// Execution engine: runs a compiled program under the BSP model, executing
// vertex arithmetic for real (so results are numerically meaningful) while
// charging a cycle model per superstep (so "execution time" is
// architecturally plausible device time, never host wall clock).
//
// Host-side execution is multithreaded: within one compute set vertices
// touch disjoint output regions (validated at compile time), so the engine
// shards vertex execution and copy data movement over util::ParallelFor.
// The cycle/flop accounting stays serial, so reports and tensor results are
// bitwise identical for every REPRO_THREADS / host_threads setting.
//
// Engines are constructed by ipu::Session (session.h), the only entry
// point; the old direct-construction shim is gone.
#pragma once

#include <map>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ipusim/codelet.h"
#include "ipusim/executable.h"

namespace repro::obs {
class Tracer;
class TraceTrack;
}  // namespace repro::obs

namespace repro::ipu {

struct RunReport {
  std::uint64_t total_cycles = 0;
  std::uint64_t compute_cycles = 0;
  std::uint64_t exchange_cycles = 0;
  std::uint64_t sync_cycles = 0;
  double host_seconds = 0.0;  // host-link time the device waited on (stalls)
  // Host-link transfer time hidden behind compute by double-buffered
  // StreamIn/StreamOut ops. Informational: NOT part of seconds() -- the
  // device never waited for it. host_seconds + overlapped_host_seconds is
  // the total link occupancy.
  double overlapped_host_seconds = 0.0;
  double flops = 0.0;  // useful flops executed
  std::size_t bytes_exchanged = 0;

  // End-to-end simulated time: on-chip cycles plus host streaming.
  double seconds(const IpuArch& arch) const {
    return static_cast<double>(total_cycles) / arch.clock_hz + host_seconds;
  }
  double gflops(const IpuArch& arch) const {
    const double s = seconds(arch);
    return s > 0.0 ? flops / s / 1e9 : 0.0;
  }

  // Flat JSON object with every raw field (no derived/arch-dependent
  // quantities), the schema the BENCH_*.json writers rely on.
  std::string ToJson() const;
};

// Process-wide host wall-clock accounting for the engine's two hot paths:
// construction (span resolution + cost precomputation) and run() (vertex
// execution). Accumulated across every engine in the process. Host-only
// observability: no simulated quantity reads it; benches print it to stdout.
struct EngineHostStats {
  double build_seconds = 0.0;
  std::uint64_t build_vertices = 0;  // graph vertices per engine constructed
  double run_seconds = 0.0;
  std::uint64_t run_vertices = 0;    // vertex computations executed
  std::uint64_t run_dispatches = 0;  // plan groups dispatched to run them
};
EngineHostStats EngineHostStatsSnapshot();
void ResetEngineHostStats();

struct EngineOptions {
  // When false, vertex compute functions are skipped and no tensor storage
  // is allocated: the run produces timing only. Used for large parameter
  // sweeps where executing the arithmetic on the host would be infeasible.
  bool execute = true;
  // When true, Repeat(n, body) executes the body once and scales the cost
  // delta by n. Cycle models are data-independent so timing is exact;
  // only useful when the repeated numerics are not needed n times.
  bool fast_repeat = true;
  // Host threads for vertex execution and copy movement; 0 defers to
  // REPRO_THREADS / hardware concurrency (util::ParallelWorkers). Never
  // affects simulated results, only host wall clock.
  std::size_t host_threads = 0;
  // Optional BSP-timeline sink: per-superstep compute/exchange/sync/host
  // spans on (trace_pid, obs::kLane*) with simulated-clock timestamps. Null
  // keeps the hot path allocation- and branch-light (one pointer test).
  obs::Tracer* tracer = nullptr;
  std::size_t trace_pid = 0;
  std::string trace_label;
};

class Engine {
 public:
  using Options = EngineOptions;

  // Tag for the supported construction path (used by Session). Engines are
  // built from an Executable alone -- the artifact's immutable graph
  // snapshot is the only graph an engine ever reads, which is what lets an
  // artifact loaded from disk run in a process that never built a graph.
  struct Internal {};
  Engine(Internal, Executable exe, Options opts);
  // Shares an already-compiled executable instead of owning a private copy;
  // every variable starts zeroed in this engine's own buffer.
  Engine(Internal, std::shared_ptr<const Executable> exe, Options opts);
  // Replica construction: runs `source`'s executable. The compile artifacts
  // (program, ledgers, exchange plans) are shared, and so are `source`'s
  // host buffers of the variables no program step writes
  // (ConstantVariables); every other variable starts zeroed in a private
  // buffer, so replicas run concurrently. writeTensor copies a shared
  // buffer before writing it, so each engine behaves as if all of its
  // storage were private.
  Engine(Internal, const Engine& source, Options opts);

  // Host data access (requires Options::execute). Fatal unless `t` is a
  // window inside one of the graph's variables and the span matches it.
  // A write into a buffer another engine still holds copies it first.
  void writeTensor(const Tensor& t, std::span<const float> data);
  void readTensor(const Tensor& t, std::span<float> out) const;

  // Bytes of host tensor storage no other engine holds: all of it for an
  // engine whose buffers are unshared, only the written variables for a
  // replica that shares its constants. Host memory only; the simulated
  // ledger charges every engine's tiles for every variable either way.
  std::size_t ownedStorageBytes() const;

  // Runs the compiled program once and returns its cost report.
  RunReport run();

  const Executable& executable() const { return *exe_; }

 private:
  Engine(std::shared_ptr<const Executable> exe, Options opts,
         const Engine* share_from);
  // writeTensor/readTensor's checks on a host view of `size` elements.
  void checkHostView(const Tensor& t, std::size_t size, const char* op) const;
  // Copy-on-write: `var`'s buffer, first copied if another engine still
  // holds it, with the group spans resolved into the old buffer re-pointed.
  float* unsharedData(VarId var);
  void runProgram(const Program& p, RunReport& r);
  void execComputeSet(ComputeSetId cs, RunReport& r);
  void execCopy(const Program& p, RunReport& r);
  void execCopyBundle(const Program& p, RunReport& r);
  // Accumulates one copy's cross-tile traffic into `incoming`/`total`
  // (accounting only; const with respect to tensor storage).
  void walkCopyTraffic(const Program& copy,
                       std::map<std::size_t, std::size_t>& incoming,
                       std::size_t& total) const;
  // Performs one copy's data movement (execute mode), sharded over host
  // threads when the source and destination regions do not overlap.
  void moveCopyData(const Program& copy);
  void chargeHostTransfer(std::size_t bytes, const char* name, RunReport& r);
  // Double-buffered host FIFO ops: the link fills/drains one buffer while
  // the device consumes/produces the other, so only the un-hidden part of
  // the transfer lands in host_seconds (the rest in overlapped_host_seconds).
  void execStreamIn(const Program& p, RunReport& r);
  void execStreamOut(const Program& p, RunReport& r);
  // Absolute simulated time "now": end of previous runs plus this report.
  double simNowS(const RunReport& r) const;
  std::size_t hostWorkers() const;
  // "Now" on the trace clock, in microseconds: cycles so far on the chip
  // clock plus host streaming time, offset by the end of previous runs.
  double traceNowUs(const RunReport& r) const;
  double cyclesToUs(double cycles) const;

  std::shared_ptr<const Executable> exe_;  // declared before graph_: see ctor
  const Graph& graph_;                     // alias of *exe_->graph
  Options opts_;
  // One reference-counted buffer per variable (execute mode); constants may
  // be shared with the engine this one was made from, or with its replicas.
  std::vector<std::shared_ptr<std::vector<float>>> storage_;
  // Kernel-plan dispatch state: per-group spans and vertex states resolved
  // against this engine's storage (execute mode), aligned with the
  // plan's SoA tables; cached codelet pointers; and each lowered compute
  // set's contiguous [begin, end) range of plan groups, one host dispatch
  // per group.
  std::vector<std::vector<std::span<float>>> group_spans_;
  std::vector<std::vector<std::span<const float>>> group_states_;
  std::vector<const Codelet*> group_codelet_;
  std::vector<std::pair<std::size_t, std::size_t>> cs_groups_;
  // Host wall-clock accumulators flushed into the process-wide
  // EngineHostStats at the end of each run().
  std::uint64_t run_vertices_acc_ = 0;
  std::uint64_t run_dispatches_acc_ = 0;
  // Per compute set: bottleneck-tile compute cycles (incl. dispatch) and the
  // serially-accumulated flop total (fixed summation order, precomputed once
  // so run() cost does not scale with vertex count in timing-only sweeps).
  std::vector<double> cs_compute_cycles_;
  std::vector<double> cs_flops_;
  // Lowest tile achieving cs_compute_cycles_, for the compute-span args.
  std::vector<std::size_t> cs_bottleneck_tile_;
  // Trace lanes (null when tracing is off). Emission happens only from the
  // serial accounting path, so the single-writer track contract holds.
  obs::TraceTrack* tr_compute_ = nullptr;
  obs::TraceTrack* tr_exchange_ = nullptr;
  obs::TraceTrack* tr_sync_ = nullptr;
  obs::TraceTrack* tr_host_ = nullptr;
  // Simulated end time of all previous run() calls. Always advanced (not
  // only when tracing): it anchors the trace timeline AND the absolute-time
  // host-FIFO state below, so stream warmth carries across run() calls
  // identically whether or not a tracer is attached.
  double trace_base_s_ = 0.0;
  // Per-stream FIFO state, indexed like exe_->streams: absolute sim time
  // the prefetched input buffer becomes ready (< 0 = nothing in flight).
  std::vector<double> stream_ready_s_;
  // Absolute sim times the host link is free in each direction (the link is
  // full duplex: one in-flight transfer per direction).
  double in_link_free_s_ = 0.0;
  double out_link_free_s_ = 0.0;
};

// Per variable of exe's graph: true when nothing the compiled program runs
// can write it. Such a variable is never the destination of a Copy,
// CopyBundle, HostWrite or StreamIn and never the view of an is_output
// vertex edge (weights, biases, classifiers). Replica engines share these
// buffers.
std::vector<bool> ConstantVariables(const Executable& exe);

// True when the program tree contains a StreamIn/StreamOut anywhere; the
// engine's fast_repeat path needs a few warm-up iterations for such bodies
// (the FIFO steady state) before scaling the per-iteration delta.
bool ProgramHasStream(const Program& p);

}  // namespace repro::ipu
