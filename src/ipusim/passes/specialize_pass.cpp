#include "ipusim/passes/specialize_pass.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "ipusim/codelet.h"
#include "util/parallel.h"

namespace repro::ipu {

Status SpecializeKernelsPass::Run(LoweringContext& ctx, PassReport& report) {
  const Graph& graph = *ctx.graph;
  const std::vector<Vertex>& vertices = graph.vertices();
  KernelPlan& plan = ctx.kernel_plan;

  // Intern codelet names and, per codelet, the sorted distinct field and
  // immediate names across its vertices. std::map/std::set give the sorted
  // deterministic order the artifact-byte contract needs.
  std::map<std::string, std::uint32_t> codelet_index;
  {
    std::map<std::string, std::pair<std::set<std::string>, std::set<std::string>>>
        names;
    for (const Vertex& v : vertices) {
      auto& [fields, imms] = names[v.codelet];
      for (const Edge& e : v.edges) fields.insert(e.field);
      for (const auto& kv : v.immediates) imms.insert(kv.first);
    }
    plan.codelets.reserve(names.size());
    for (auto& [name, tables] : names) {
      codelet_index[name] = static_cast<std::uint32_t>(plan.codelets.size());
      KernelCodelet c;
      c.name = name;
      c.fields.assign(tables.first.begin(), tables.first.end());
      c.imms.assign(tables.second.begin(), tables.second.end());
      plan.codelets.push_back(std::move(c));
    }
  }

  // Evaluate every vertex's data-independent cycle/FLOP model once (sizes,
  // immediates and state only). Parallel over disjoint slots: deterministic.
  const CodeletRegistry& registry = CodeletRegistry::Get();
  plan.vertex_cycles.resize(vertices.size());
  plan.vertex_flops.resize(vertices.size());
  ParallelForWith(
      ParallelWorkers(), std::size_t{0}, vertices.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const Vertex& v = vertices[i];
          const VertexArgs args(graph.arch(), v);
          const Codelet& c = registry.Lookup(v.codelet);
          plan.vertex_cycles[i] = c.cycles(args);
          plan.vertex_flops[i] = c.flops(args);
        }
      },
      /*min_grain=*/64);

  // Group each reachable compute set's vertices by (tile, codelet), keeping
  // lowered execution order within a group. Groups are emitted sorted by
  // (cs, tile, codelet index), so per-CS ranges are contiguous.
  std::size_t dispatches_before = 0;
  for (ComputeSetId cs : ctx.reachable) {
    const std::vector<VertexId>& vids = ctx.lowered[cs].vertices;
    dispatches_before += vids.size();
    std::map<std::pair<std::size_t, std::uint32_t>, std::vector<VertexId>>
        by_tile_codelet;
    for (VertexId vid : vids) {
      const Vertex& v = vertices[vid];
      by_tile_codelet[{v.tile, codelet_index.at(v.codelet)}].push_back(vid);
    }
    for (auto& [key, members] : by_tile_codelet) {
      KernelGroup g;
      g.cs = cs;
      g.tile = key.first;
      g.codelet = key.second;
      g.vertices = std::move(members);
      const KernelCodelet& c = plan.codelets[g.codelet];
      const std::size_t nv = g.vertices.size();

      // Slot-major CSR edge table: each slot's (nv+1)-entry row starts where
      // the previous slot's row ended, so the flat `edges` vector is packed
      // slot-major then vertex then connection order.
      g.edge_start.reserve(c.fields.size() * (nv + 1));
      for (const std::string& field : c.fields) {
        g.edge_start.push_back(static_cast<std::uint32_t>(g.edges.size()));
        for (VertexId vid : g.vertices) {
          for (const Edge& e : vertices[vid].edges) {
            if (e.field == field) g.edges.push_back(e.view);
          }
          g.edge_start.push_back(static_cast<std::uint32_t>(g.edges.size()));
        }
      }

      g.imm_values.assign(c.imms.size() * nv, 0.0);
      g.imm_present.assign(c.imms.size() * nv, 0);
      for (std::size_t s = 0; s < c.imms.size(); ++s) {
        const std::string& imm = c.imms[s];
        for (std::size_t i = 0; i < nv; ++i) {
          const auto& imms = vertices[g.vertices[i]].immediates;
          auto it = imms.find(imm);
          if (it != imms.end()) {
            g.imm_values[s * nv + i] = it->second;
            g.imm_present[s * nv + i] = 1;
          }
        }
      }
      plan.groups.push_back(std::move(g));
    }
  }

  report.objects_before = dispatches_before;
  report.objects_after = plan.groups.size();
  return Status::Ok();
}

}  // namespace repro::ipu
