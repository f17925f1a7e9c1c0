#pragma once

#include "ipusim/passes/pass.h"

namespace repro::ipu {

// Builds the KernelPlan (codelet.h) the engine runs vertices through, one
// fused batch per (compute set, tile, codelet):
//  * interns every codelet's field and immediate names into sorted slot
//    tables,
//  * packs each group's edge views and immediates into SoA offset tables in
//    lowered execution order,
//  * evaluates every vertex's cycle/FLOP model once at compile time (the
//    estimators are data-independent -- they consult sizes, immediates,
//    state, and arch, never span contents -- so the values survive
//    serialization exactly).
//
// Runs last, on every compile: lowered compute sets, exchange plans, and
// ledgers are untouched. Groups cover the reachable compute sets. Report
// counts: objects_before = per-vertex dispatches across reachable compute
// sets, objects_after = fused groups.
class SpecializeKernelsPass : public CompilerPass {
 public:
  const char* name() const override { return "specialize-kernels"; }
  Status Run(LoweringContext& ctx, PassReport& report) override;
};

}  // namespace repro::ipu
