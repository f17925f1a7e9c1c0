#include "ipusim/compiler.h"

#include <chrono>
#include <memory>
#include <utility>

#include "ipusim/passes/exchange_plan_pass.h"
#include "ipusim/passes/fusion_pass.h"
#include "ipusim/passes/ledger_pass.h"
#include "ipusim/passes/liveness_pass.h"
#include "ipusim/passes/pass.h"
#include "ipusim/passes/specialize_pass.h"
#include "ipusim/passes/validate_pass.h"
#include "obs/trace.h"

namespace repro::ipu {

StatusOr<Executable> Compile(const Graph& graph, Program program,
                             const CompileOptions& options) {
  LoweringContext ctx;
  ctx.graph = &graph;
  ctx.options = options;
  ctx.program = std::move(program);

  // Identity lowering: one lowered compute set per graph compute set, one
  // arena slot per variable. The optimization passes refine both.
  ctx.lowered.reserve(graph.computeSets().size());
  for (ComputeSetId cs = 0; cs < graph.computeSets().size(); ++cs) {
    ctx.lowered.push_back(
        {graph.computeSets()[cs].name,
         graph.verticesInCs(cs)});
  }
  ctx.slot_of_var.resize(graph.variables().size());
  ctx.slot_bytes_var.resize(graph.variables().size());
  for (VarId v = 0; v < graph.variables().size(); ++v) {
    ctx.slot_of_var[v] = v;
    ctx.slot_bytes_var[v] = v;
  }

  std::vector<std::unique_ptr<CompilerPass>> pipeline;
  pipeline.push_back(std::make_unique<ValidatePass>());
  if (options.fuse_compute_sets) {
    pipeline.push_back(std::make_unique<ComputeSetFusionPass>());
  }
  if (options.reuse_variable_memory) {
    pipeline.push_back(std::make_unique<VariableLivenessPass>());
  }
  pipeline.push_back(std::make_unique<ExchangePlanPass>());
  pipeline.push_back(std::make_unique<LedgerPass>());
  // Last: groups are built over the final lowered compute sets, and the
  // pass is additive (no ledger or exchange effects).
  pipeline.push_back(std::make_unique<SpecializeKernelsPass>());

  // Compile spans live on an ordinal clock (pass index as the timestamp):
  // the wall-clock duration in PassReport::seconds would break the bitwise
  // determinism contract the trace JSON is held to.
  obs::TraceTrack* trace = nullptr;
  if (options.tracer != nullptr) {
    trace = &options.tracer->track(
        options.trace_pid, obs::kLaneCompile,
        options.trace_label.empty() ? "ipu" : options.trace_label, "compile");
  }
  for (std::size_t pi = 0; pi < pipeline.size(); ++pi) {
    auto& pass = pipeline[pi];
    // Reachability can change only when the program tree is rewritten, but
    // recomputing it per pass keeps every pass free to do so.
    ctx.reachable = ReachableComputeSets(ctx.program);
    PassReport report;
    report.pass = pass->name();
    const auto t0 = std::chrono::steady_clock::now();
    Status s = pass->Run(ctx, report);
    report.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    ctx.stats.pass_reports.push_back(report);
    if (trace != nullptr) {
      options.tracer->Count("compile.passes");
      if (s.ok()) {
        trace->Complete(report.pass, "compile", static_cast<double>(pi), 1.0,
                        {obs::Arg("objects_before", report.objects_before),
                         obs::Arg("objects_after", report.objects_after),
                         obs::Arg("bytes_saved", report.bytes_saved)});
      } else {
        trace->Instant("compile_error:" + report.pass, "compile",
                       static_cast<double>(pi),
                       {obs::Arg("error", s.message())});
      }
    }
    if (!s.ok()) return s;
  }

  Executable exe;
  // Immutable snapshot: the artifact outlives (and is independent of) the
  // caller's build graph.
  exe.graph = std::make_shared<const Graph>(graph);
  exe.program = std::move(ctx.program);
  exe.stats = std::move(ctx.stats);
  exe.tiles = std::move(ctx.tiles);
  exe.cs_exchange = std::move(ctx.cs_exchange);
  exe.lowered_cs = std::move(ctx.lowered);
  exe.kernel_plan = std::move(ctx.kernel_plan);
  exe.streams = std::move(ctx.streams);
  return exe;
}

}  // namespace repro::ipu
