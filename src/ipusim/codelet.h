// Codelets: the vertex programs that run on tiles.
//
// A codelet bundles real arithmetic (compute) with a cycle model (cycles)
// and a useful-FLOP count (flops). The engine executes compute so results
// are numerically real, and charges the cycle model so device time is
// architecturally plausible. Cycle constants are calibrated against the
// paper's measurements; each builtin documents its calibration.
//
// Vertices run through one representation, the compiled KernelPlan: the
// specialize-kernels pass interns field and immediate names to integer
// slots and packs each (compute set, tile, codelet) group's edges into SoA
// tables, and the engine hands each group to one Codelet::compute call over
// a ResolvedArgs view. The cycle and flop estimators run once per vertex in
// that pass, over a VertexArgs view of sizes, immediates and state.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ipusim/arch.h"
#include "ipusim/graph.h"
#include "util/error.h"

namespace repro::ipu {

// What the cycle and flop estimators may read of one vertex: edge counts and
// sizes per field, immediates, baked state and the arch -- never tensor
// contents, which is what lets the specialize-kernels pass evaluate them
// once at compile time.
class VertexArgs {
 public:
  VertexArgs(const IpuArch& arch, const Vertex& vertex)
      : arch_(arch), vertex_(vertex) {}

  // Number of connections of a field.
  std::size_t fan(std::string_view field) const {
    std::size_t n = 0;
    for (const Edge& e : vertex_.edges) n += e.field == field ? 1 : 0;
    return n;
  }
  // Total element count across all edges of a field.
  std::size_t totalElems(std::string_view field) const {
    std::size_t n = 0;
    for (const Edge& e : vertex_.edges) {
      if (e.field == field) n += e.view.numel;
    }
    return n;
  }

  double imm(const std::string& name, double def = 0.0) const {
    auto it = vertex_.immediates.find(name);
    return it == vertex_.immediates.end() ? def : it->second;
  }
  std::span<const float> state() const {
    return {vertex_.state.data(), vertex_.state.size()};
  }
  const IpuArch& arch() const { return arch_; }

 private:
  const IpuArch& arch_;
  const Vertex& vertex_;
};

// --- kernel plan (specialize-kernels pass) ---------------------------------
//
// The compile-time dispatch tables: field and immediate names are interned
// per codelet into sorted slot tables, and each (compute set, tile, codelet)
// group's edges/immediates are packed into SoA offset tables the engine
// resolves once per engine, not once per run. Serialized into the
// ipu::Executable wire format.

// Interning tables for one codelet: the sorted distinct field and immediate
// names observed across its vertices. Slot ids index these vectors.
struct KernelCodelet {
  std::string name;
  std::vector<std::string> fields;
  std::vector<std::string> imms;
};

// One fused host dispatch: every vertex of one codelet on one tile within
// one lowered compute set, in lowered execution order.
struct KernelGroup {
  ComputeSetId cs = 0;        // lowered compute set id
  std::uint32_t codelet = 0;  // index into KernelPlan::codelets
  std::size_t tile = 0;
  std::vector<VertexId> vertices;
  // Slot-major CSR over the group's edge views: for field slot s and group
  // vertex v, edges[edge_start[s*(nv+1)+v] .. edge_start[s*(nv+1)+v+1]) are
  // vertex v's connections of that field, in connection order. Slot rows are
  // contiguous: row s ends where row s+1 begins.
  std::vector<std::uint32_t> edge_start;
  std::vector<Tensor> edges;
  // Slot-major immediates: slot s of group vertex v lives at [s*nv + v];
  // imm_present flags whether the vertex actually set it (absent immediates
  // take the kernel's default at run time).
  std::vector<double> imm_values;
  std::vector<std::uint8_t> imm_present;
};

struct KernelPlan {
  std::vector<KernelCodelet> codelets;
  // Sorted by (cs, tile, codelet) so per-compute-set ranges are contiguous.
  // Every vertex of every executed compute set sits in exactly one group of
  // that compute set.
  std::vector<KernelGroup> groups;
  // Data-independent per-vertex costs, evaluated once at compile time (the
  // cycle/flops estimators only consult sizes/immediates/state/arch, never
  // span contents). Indexed by VertexId over all graph vertices; raw
  // IEEE-754 in the artifact, so bit-exact across save/load.
  std::vector<double> vertex_cycles;
  std::vector<double> vertex_flops;
};

// Resolved SoA view of one KernelGroup, handed to Codelet::compute.
// Spans are resolved into engine storage (by the engine, once per engine);
// slot lookups happen once per dispatch, outside the vertex loop.
class ResolvedArgs {
 public:
  ResolvedArgs(const IpuArch* arch, const KernelCodelet* codelet,
               const KernelGroup* group, const std::span<float>* spans,
               const std::span<const float>* states)
      : arch_(arch),
        codelet_(codelet),
        group_(group),
        spans_(spans),
        states_(states),
        nv_(group->vertices.size()) {}

  std::size_t size() const { return nv_; }
  const IpuArch& arch() const { return *arch_; }

  // Interned slot of a field/immediate name; -1 when no vertex in the group
  // connects/sets it (fan() reports 0 and imm() returns the default).
  int fieldSlot(std::string_view name) const {
    return slotOf(codelet_->fields, name);
  }
  int immSlot(std::string_view name) const {
    return slotOf(codelet_->imms, name);
  }

  std::size_t fan(std::size_t v, int slot) const {
    if (slot < 0) return 0;
    const std::uint32_t* row = rowOf(slot);
    return row[v + 1] - row[v];
  }
  std::span<float> edge(std::size_t v, int slot, std::size_t i = 0) const {
    REPRO_REQUIRE(slot >= 0,
                  "batch kernel field slot not interned (not connected on any "
                  "vertex of this codelet)");
    const std::uint32_t* row = rowOf(slot);
    REPRO_REQUIRE(row[v] + i < row[v + 1],
                  "batch vertex field slot %d[%zu] not connected", slot, i);
    return spans_[row[v] + i];
  }
  double imm(std::size_t v, int slot, double def = 0.0) const {
    if (slot < 0) return def;
    const std::size_t idx = static_cast<std::size_t>(slot) * nv_ + v;
    return group_->imm_present[idx] ? group_->imm_values[idx] : def;
  }
  std::span<const float> state(std::size_t v) const { return states_[v]; }

 private:
  static int slotOf(const std::vector<std::string>& names,
                    std::string_view name) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
  const std::uint32_t* rowOf(int slot) const {
    return group_->edge_start.data() +
           static_cast<std::size_t>(slot) * (nv_ + 1);
  }

  const IpuArch* arch_;
  const KernelCodelet* codelet_;
  const KernelGroup* group_;
  const std::span<float>* spans_;          // aligned with group_->edges
  const std::span<const float>* states_;   // aligned with group_->vertices
  std::size_t nv_;
};

struct Codelet {
  std::string name;
  // Per-tile code footprint, charged once per tile that hosts the codelet.
  std::size_t code_bytes = 256;
  // Fixed per-vertex descriptor bytes (on top of edge pointers and baked
  // state, which the compiler adds separately).
  std::size_t base_state_bytes = 32;
  std::function<double(const VertexArgs&)> cycles;
  std::function<double(const VertexArgs&)> flops;
  // Runs every vertex of one (compute set, tile, codelet) group over
  // ResolvedArgs' SoA tables, in lowered order.
  std::function<void(const ResolvedArgs&)> compute;
};

// Global codelet registry; builtins are registered on first access.
class CodeletRegistry {
 public:
  static CodeletRegistry& Get();

  void Register(Codelet codelet);
  const Codelet& Lookup(const std::string& name) const;
  bool Has(const std::string& name) const;

 private:
  CodeletRegistry();
  std::map<std::string, Codelet> codelets_;
};

// Builtin codelet names.
namespace codelets {
inline constexpr const char* kScalarGemm = "ScalarGemm";
inline constexpr const char* kAmpGemm = "AmpGemm";
inline constexpr const char* kReduceAdd = "ReduceAdd";
inline constexpr const char* kScaledAdd = "ScaledAdd";
inline constexpr const char* kRelu = "Relu";
inline constexpr const char* kDiagMul = "DiagMul";
inline constexpr const char* kButterfly2x2 = "Butterfly2x2";
inline constexpr const char* kHadamard2 = "Hadamard2";
inline constexpr const char* kSparseRowsMac = "SparseRowsMac";
inline constexpr const char* kSparseCooMac = "SparseCooMac";
inline constexpr const char* kBlockGemmAmp = "BlockGemmAmp";
inline constexpr const char* kBiasRelu = "BiasRelu";
}  // namespace codelets

// The Butterfly2x2 codelet's arithmetic on w.size() / 4 consecutive pairs,
// each `batch` columns wide: with (a, b, c, d) = w[4p .. 4p+3],
// yt = a * xt + b * xb and yb = c * xt + d * xb. Both endpoints of an
// element are read before either is written, so the outputs may alias the
// inputs. The cluster shard plans apply their cross-chip factors through it.
void ButterflyCore(std::size_t batch, std::span<const float> w,
                   std::span<const float> xt, std::span<const float> xb,
                   std::span<float> yt, std::span<float> yb);

}  // namespace repro::ipu
