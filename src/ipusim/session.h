// ipu::Session -- the one entry point for building, compiling, and running
// a simulated-IPU program.
//
// A Session owns the Graph -> Compile -> Engine lifecycle that callers
// previously wired together by hand:
//
//   ipu::Session session(arch, {.execute = true});
//   auto plan = BuildMatMul(session.graph(), m, k, n, impl);   // build
//   REPRO_CHECK_OK(session.compile(plan->prog));               // compile once
//   session.writeTensor(plan->a, a_data);                      // IO
//   RunReport r = session.run();                               // run many
//
// compile() runs at most once per session; every subsequent run() reuses the
// executable, so trainer epochs and bench sweeps never pay recompilation.
// SessionOptions merges the old EngineOptions with the compile knobs so
// callers configure one object instead of two.
//
// Determinism contract: `host_threads` (and the REPRO_THREADS environment
// default behind it) only changes host wall-clock time. Simulated cycle
// counts, bytes exchanged, and every tensor read back are bitwise identical
// across thread counts.
#pragma once

#include <memory>
#include <optional>

#include "ipusim/compiler.h"
#include "ipusim/engine.h"
#include "ipusim/graph.h"
#include "ipusim/profiler.h"
#include "ipusim/program.h"
#include "util/error.h"

namespace repro::ipu {

class ExeCache;

// All knobs for one session, replacing the separate EngineOptions +
// CompileOptions pair of the deprecated direct-Engine path.
struct SessionOptions {
  // Execute vertex arithmetic (true) or account timing only (false).
  bool execute = true;
  // Scale Repeat bodies instead of re-running them (exact for the
  // data-independent cycle model).
  bool fast_repeat = true;
  // Let compilation succeed past per-tile memory limits (memory studies).
  bool allow_oversubscription = false;
  // Merge adjacent disjoint Execute steps into one compute set (compiler
  // fusion pass). Off reproduces the unfused per-step accounting.
  bool fuse_compute_sets = true;
  // Share per-tile arena slots between variables with non-overlapping
  // lifetimes (compiler liveness pass). Ledger-only: engine results are
  // bitwise identical either way.
  bool reuse_variable_memory = true;
  // Host worker threads for engine execution; 0 defers to REPRO_THREADS /
  // hardware concurrency. Never affects simulated results.
  std::size_t host_threads = 0;
  // Optional trace sink (obs/trace.h): compile-pass spans and the engine's
  // per-superstep BSP timeline land on trace_pid, labeled trace_label.
  // Simulated-clock timestamps keep the trace inside the same bitwise
  // determinism contract as the run reports. Null = tracing off (free).
  obs::Tracer* tracer = nullptr;
  std::size_t trace_pid = 0;
  std::string trace_label{};
  // Optional content-addressed compile cache (exe_cache.h). When set,
  // compile() consults it before compiling and registers fresh artifacts
  // with it; a hit returns an executable bitwise identical to a fresh
  // compile. Not owned; must outlive the session. Null = compile directly.
  ExeCache* cache = nullptr;

  // Rejects nonsensical combinations before they reach the engine.
  Status Validate() const;

  EngineOptions engineOptions() const {
    return EngineOptions{.execute = execute,
                         .fast_repeat = fast_repeat,
                         .host_threads = host_threads,
                         .tracer = tracer,
                         .trace_pid = trace_pid,
                         .trace_label = trace_label};
  }
  CompileOptions compileOptions() const {
    return CompileOptions{.allow_oversubscription = allow_oversubscription,
                          .fuse_compute_sets = fuse_compute_sets,
                          .reuse_variable_memory = reuse_variable_memory,
                          .tracer = tracer,
                          .trace_pid = trace_pid,
                          .trace_label = trace_label};
  }
};

class Session {
 public:
  explicit Session(const IpuArch& arch, SessionOptions opts = {});

  // The compiled executable is self-contained (it snapshots the graph), but
  // callers hold Tensor handles resolved against this session; keep the
  // session non-copyable/non-movable so those associations stay obvious.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  Session(Session&&) = delete;
  Session& operator=(Session&&) = delete;

  // Graph under construction; build vertices/tensors here before compile().
  // Mutating the graph after compile() is undefined.
  Graph& graph() { return graph_; }
  const Graph& graph() const { return graph_; }
  const SessionOptions& options() const { return opts_; }

  // Compiles `program` against the graph (through options().cache when one
  // is configured). At most once per session (fatal on a second call);
  // compile failures (e.g. OutOfMemory) leave the session uncompiled and
  // are returned, not thrown.
  Status compile(Program program);
  bool compiled() const { return engine_.has_value(); }

  // Instantiates an engine over an already-compiled artifact -- the AOT
  // path, e.g. one Executable::Load read back from save()'s file. The
  // session's build graph is ignored; tensor handles built against an
  // identically-constructed graph remain valid (handles are value offsets
  // into the artifact's graph snapshot). Same at-most-once rule as
  // compile(); rejects a null artifact.
  Status instantiate(std::shared_ptr<const Executable> exe);

  // Saves the compiled artifact (Executable::Save). Fatal before compile().
  Status save(const std::string& path) const;

  // Runs the compiled program once, reusing the executable. Fatal before a
  // successful compile().
  RunReport run();

  // Spawns an independent engine over this session's compiled executable:
  // compilation runs once, and every replica shares the same program,
  // ledgers and exchange plans (the serving replica pool's substrate). A
  // replica shares the session engine's host buffers of the variables no
  // program step writes, so it starts with whatever was written into them
  // (the weights), and gets private zeroed storage for the rest, so
  // replicas execute concurrently. Writing a shared variable copies it
  // first, in whichever engine writes (Engine's replica constructor).
  // The replica's execute/fast_repeat flags follow the session options;
  // `host_threads` caps the replica's own host parallelism (0 defers to the
  // session's setting). Fatal before a successful compile().
  std::unique_ptr<Engine> makeReplica(std::size_t host_threads = 0) const;

  // Host tensor IO (requires options().execute and a compiled session).
  void writeTensor(const Tensor& t, std::span<const float> data);
  void readTensor(const Tensor& t, std::span<float> out) const;
  // Host storage bytes the session engine shares with no replica
  // (Engine::ownedStorageBytes).
  std::size_t ownedStorageBytes() const;

  // Compile artifacts: ledgers, stats and graph-count summaries.
  const Executable& executable() const;
  GraphCounts counts() const { return CountsOf(executable()); }

 private:
  Graph graph_;
  SessionOptions opts_;
  std::optional<Engine> engine_;
};

}  // namespace repro::ipu
