// Poplar-like graph construction API.
//
// A Graph owns variables (float tensors with an explicit per-interval tile
// mapping), compute sets, and vertices (instances of registered codelets
// whose fields connect to tensor intervals). Programs (program.h) sequence
// compute sets and copies; the compiler (compiler.h) checks that everything
// fits in tile memory and builds exchange plans; the engine (engine.h)
// actually executes vertex arithmetic while charging cycles.
//
// Differences from real Poplar, chosen deliberately:
//  * float32 only; index data is baked into vertex state (as popsparse does
//    for static sparsity patterns).
//  * tensor views are contiguous 1-D intervals (with a 2-D convenience
//    layer), not arbitrary strided views; strided access is expressed as
//    multiple edges, which is also how it costs memory on the real device.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ipusim/arch.h"
#include "util/error.h"

namespace repro::ipu {

using VarId = std::uint32_t;
using VertexId = std::uint32_t;
using ComputeSetId = std::uint32_t;
inline constexpr std::uint32_t kInvalidId = 0xffffffffu;

// A contiguous window into a variable's flattened storage.
struct Tensor {
  VarId var = kInvalidId;
  std::size_t offset = 0;  // elements
  std::size_t numel = 0;   // elements
  // 2-D convenience metadata (rows x cols, row-major within the window).
  std::size_t rows = 0;
  std::size_t cols = 0;

  bool valid() const { return var != kInvalidId; }
  std::size_t bytes() const { return numel * sizeof(float); }

  // Flattened sub-window [start, start+len).
  Tensor slice(std::size_t start, std::size_t len) const {
    REPRO_REQUIRE(start + len <= numel, "slice [%zu,+%zu) out of %zu", start,
                  len, numel);
    return Tensor{var, offset + start, len, 1, len};
  }
  // Contiguous row range of a 2-D tensor.
  Tensor rowRange(std::size_t first, std::size_t count) const {
    REPRO_REQUIRE(rows > 0 && first + count <= rows,
                  "rowRange [%zu,+%zu) out of %zu rows", first, count, rows);
    Tensor t{var, offset + first * cols, count * cols, count, cols};
    return t;
  }
  Tensor row(std::size_t r) const { return rowRange(r, 1); }
};

// One mapped interval of a variable.
struct MappedInterval {
  std::size_t begin = 0;  // element offset within the variable
  std::size_t end = 0;
  std::size_t tile = 0;
};

struct Variable {
  std::string name;
  std::size_t numel = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<MappedInterval> mapping;  // sorted, non-overlapping
};

// A vertex field connection (an "edge" in Poplar terms).
struct Edge {
  std::string field;
  Tensor view;
  bool is_output = false;
};

struct Vertex {
  std::string codelet;
  std::size_t tile = 0;
  ComputeSetId cs = kInvalidId;
  std::vector<Edge> edges;
  std::map<std::string, double> immediates;   // scalar parameters
  std::vector<float> state;                   // baked per-vertex data
};

struct ComputeSet {
  std::string name;
};

class Graph {
 public:
  explicit Graph(const IpuArch& arch);

  // Reconstructs a graph from its value parts (the executable deserializer,
  // executable.cpp); rebuilds the derived per-compute-set vertex lists and
  // the edge count. Fatal on structurally inconsistent parts (a vertex
  // naming a compute set or variable that does not exist).
  static Graph FromParts(const IpuArch& arch, std::vector<Variable> variables,
                         std::vector<ComputeSet> compute_sets,
                         std::vector<Vertex> vertices);

  const IpuArch& arch() const { return arch_; }

  // --- variables ---
  Tensor addVariable(const std::string& name, std::size_t rows,
                     std::size_t cols);
  Tensor addVariable(const std::string& name, std::size_t numel);

  // Maps a view to a single tile (appends an interval).
  void setTileMapping(const Tensor& t, std::size_t tile);
  // Spreads a tensor's elements across all tiles in contiguous chunks that
  // are multiples of `grain` elements.
  void mapLinearly(const Tensor& t, std::size_t grain = 1);

  // Tile that owns element `offset + idx` of the view (fatal if unmapped).
  std::size_t tileOfElement(const Tensor& t, std::size_t idx) const;

  // --- compute sets & vertices ---
  ComputeSetId addComputeSet(const std::string& name);
  VertexId addVertex(ComputeSetId cs, const std::string& codelet,
                     std::size_t tile);
  void connect(VertexId v, const std::string& field, const Tensor& t,
               bool is_output = false);
  void setInitialValue(VertexId v, const std::string& name, double value);
  void setVertexState(VertexId v, std::vector<float> state);

  // --- accessors used by compiler/engine ---
  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Vertex>& vertices() const { return vertices_; }
  const std::vector<ComputeSet>& computeSets() const { return compute_sets_; }
  const std::vector<VertexId>& verticesInCs(ComputeSetId cs) const;

  std::size_t numEdges() const { return num_edges_; }

 private:
  IpuArch arch_;
  std::vector<Variable> variables_;
  std::vector<Vertex> vertices_;
  std::vector<ComputeSet> compute_sets_;
  std::vector<std::vector<VertexId>> cs_vertices_;
  std::size_t num_edges_ = 0;
};

// Invokes fn(tile, begin_element, length) for every mapped sub-range of the
// view, in element order. Fatal on unmapped elements. Shared by the compiler
// (exchange planning, ledger) and the engine (copy costing).
void ForEachMappedRange(
    const Graph& graph, const Tensor& view,
    const std::function<void(std::size_t tile, std::size_t begin,
                             std::size_t len)>& fn);

}  // namespace repro::ipu
