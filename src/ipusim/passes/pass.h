// The compiler pass pipeline. Compile() (compiler.cpp) seeds a
// LoweringContext from the graph + program, then runs each CompilerPass in
// order; every pass reads and extends the context and files a PassReport.
// See DESIGN.md "The compiler pass pipeline" for the order and the
// invariants each pass must preserve.
#pragma once

#include <vector>

#include "ipusim/compiler.h"

namespace repro::ipu {

// Memory-model constants shared by the fusion and ledger passes.
// Bytes of an edge descriptor (pointer + size) in vertex state.
inline constexpr std::size_t kEdgePointerBytes = 8;
// Control code per tile that participates in a compute set.
inline constexpr std::size_t kControlBytesPerCs = 64;
// Base control/supervisor code per active tile.
inline constexpr std::size_t kControlBaseBytes = 128;

// Mutable compilation state threaded through the passes. Seeded by the
// driver with the identity lowering (one LoweredComputeSet per graph
// compute set, one arena slot per variable); passes refine it.
struct LoweringContext {
  const Graph* graph = nullptr;
  CompileOptions options;
  Program program;

  // Lowered compute sets; fusion appends merged entries and rewrites
  // `program` to execute them.
  std::vector<LoweredComputeSet> lowered;
  // Sorted, distinct lowered ids the (possibly rewritten) program executes.
  // Refreshed by the driver after fusion; accounting passes iterate it so
  // orphaned compute sets never reach the ledger.
  std::vector<ComputeSetId> reachable;

  // Variable arena, produced by the liveness pass. slot_of_var maps each
  // variable to its arena slot; slot_bytes_var names the member whose tile
  // mapping the ledger charges for the slot (members share an identical
  // mapping, so any of them defines the slot's per-tile bytes).
  std::vector<std::size_t> slot_of_var;
  std::vector<VarId> slot_bytes_var;

  // Per-lowered-compute-set exchange plans and the per-tile exchange
  // buffer residency (max over reachable compute sets), from the exchange
  // planning pass.
  std::vector<ExchangePlan> cs_exchange;
  std::vector<std::size_t> exchange_buffer_bytes;

  // Final accounting, filled by the ledger pass.
  std::vector<TileLedger> tiles;
  CompileStats stats;

  // Vertex dispatch tables, filled by the specialize-kernels pass.
  KernelPlan kernel_plan;

  // Host FIFO descriptors collected by the validate pass from the program's
  // StreamIn/StreamOut ops (first-appearance order, deduplicated). The
  // ledger charges each descriptor's second buffer; the engine keys its
  // prefetch state off the table.
  std::vector<HostStream> streams;
};

class CompilerPass {
 public:
  virtual ~CompilerPass() = default;
  virtual const char* name() const = 0;
  // On success the context reflects this pass's effect and `report` holds
  // its before/after counts. Errors abort the pipeline.
  virtual Status Run(LoweringContext& ctx, PassReport& report) = 0;
};

// Sorted, distinct lowered compute-set ids executed by `p`.
std::vector<ComputeSetId> ReachableComputeSets(const Program& p);

}  // namespace repro::ipu
