// Graph compilation: a pipeline of passes (src/ipusim/passes/) that
// validates tile mappings, optionally fuses compute sets and reuses
// variable memory, builds per-compute-set exchange plans, produces the
// per-tile memory ledger that drives the paper's Observation 3 (memory
// overhead scales with graph structure -- edges, vertices, compute sets --
// not just data footprint), and last builds the KernelPlan the engine
// dispatches vertices through.
//
// The product types (Executable, TileLedger, CompileStats, ...) live in
// executable.h so the engine can depend on them without depending on the
// compiler.
#pragma once

#include <string>

#include "ipusim/executable.h"
#include "ipusim/graph.h"
#include "ipusim/program.h"
#include "util/error.h"

namespace repro::obs {
class Tracer;
}  // namespace repro::obs

namespace repro::ipu {

struct CompileOptions {
  // When true, a graph exceeding per-tile memory compiles anyway (ledgers
  // still record the oversubscription). Used by memory-limit experiments
  // that want to *report* the overflow rather than fail.
  bool allow_oversubscription = false;
  // Merge adjacent Execute steps with provably disjoint vertex footprints
  // into one compute set (fewer syncs, less per-CS control code).
  bool fuse_compute_sets = true;
  // Let variables with non-overlapping lifetimes and identical tile
  // mappings share per-tile arena slots in the ledger. Accounting only:
  // engine storage and results are unaffected.
  bool reuse_variable_memory = true;
  // Optional trace sink: one span per pass on (trace_pid, obs::kLaneCompile).
  // Pass spans use the pass index as their (ordinal) timestamp -- wall clock
  // stays in PassReport::seconds, outside the determinism contract.
  obs::Tracer* tracer = nullptr;
  std::size_t trace_pid = 0;
  std::string trace_label{};
};

// Validates the graph + program and produces an Executable, or an
// OutOfMemory/InvalidArgument status. The Executable carries an immutable
// snapshot (copy) of `graph`, so its lifetime is independent of the input.
StatusOr<Executable> Compile(const Graph& graph, Program program,
                             const CompileOptions& options = {});

}  // namespace repro::ipu
