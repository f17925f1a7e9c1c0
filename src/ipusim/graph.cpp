#include "ipusim/graph.h"

#include <algorithm>

#include "util/bitops.h"

namespace repro::ipu {

Graph::Graph(const IpuArch& arch) : arch_(arch) {}

Graph Graph::FromParts(const IpuArch& arch, std::vector<Variable> variables,
                       std::vector<ComputeSet> compute_sets,
                       std::vector<Vertex> vertices) {
  Graph g(arch);
  g.variables_ = std::move(variables);
  g.compute_sets_ = std::move(compute_sets);
  g.vertices_ = std::move(vertices);
  g.cs_vertices_.resize(g.compute_sets_.size());
  for (VertexId id = 0; id < g.vertices_.size(); ++id) {
    const Vertex& v = g.vertices_[id];
    REPRO_REQUIRE(v.cs < g.compute_sets_.size(),
                  "vertex %u names missing compute set %u", id, v.cs);
    for (const Edge& e : v.edges) {
      REPRO_REQUIRE(e.view.var < g.variables_.size(),
                    "vertex %u edge '%s' names missing variable", id,
                    e.field.c_str());
    }
    g.cs_vertices_[v.cs].push_back(id);
    g.num_edges_ += v.edges.size();
  }
  return g;
}

Tensor Graph::addVariable(const std::string& name, std::size_t rows,
                          std::size_t cols) {
  Variable v;
  v.name = name;
  v.rows = rows;
  v.cols = cols;
  v.numel = rows * cols;
  variables_.push_back(std::move(v));
  const VarId id = static_cast<VarId>(variables_.size() - 1);
  return Tensor{id, 0, rows * cols, rows, cols};
}

Tensor Graph::addVariable(const std::string& name, std::size_t numel) {
  return addVariable(name, 1, numel);
}

void Graph::setTileMapping(const Tensor& t, std::size_t tile) {
  REPRO_REQUIRE(t.valid() && t.var < variables_.size(), "bad tensor");
  REPRO_REQUIRE(tile < arch_.num_tiles, "tile %zu out of range", tile);
  auto& mapping = variables_[t.var].mapping;
  const MappedInterval iv{t.offset, t.offset + t.numel, tile};
  // Keep intervals sorted and reject overlaps immediately; the compiler and
  // engine then only need to check coverage.
  auto pos = std::lower_bound(
      mapping.begin(), mapping.end(), iv,
      [](const MappedInterval& a, const MappedInterval& b) {
        return a.begin < b.begin;
      });
  if (pos != mapping.end()) {
    REPRO_REQUIRE(iv.end <= pos->begin,
                  "overlapping tile mapping on variable '%s' at [%zu,%zu)",
                  variables_[t.var].name.c_str(), iv.begin, iv.end);
  }
  if (pos != mapping.begin()) {
    REPRO_REQUIRE(std::prev(pos)->end <= iv.begin,
                  "overlapping tile mapping on variable '%s' at [%zu,%zu)",
                  variables_[t.var].name.c_str(), iv.begin, iv.end);
  }
  mapping.insert(pos, iv);
}

void Graph::mapLinearly(const Tensor& t, std::size_t grain) {
  REPRO_REQUIRE(grain > 0, "grain must be positive");
  const std::size_t grains = CeilDiv(t.numel, grain);
  const std::size_t per_tile_grains =
      std::max<std::size_t>(1, CeilDiv(grains, arch_.num_tiles));
  const std::size_t chunk = per_tile_grains * grain;
  std::size_t tile = 0;
  for (std::size_t off = 0; off < t.numel; off += chunk) {
    const std::size_t len = std::min(chunk, t.numel - off);
    setTileMapping(t.slice(off, len), tile);
    tile = (tile + 1) % arch_.num_tiles;
  }
}

std::size_t Graph::tileOfElement(const Tensor& t, std::size_t idx) const {
  const std::size_t abs = t.offset + idx;
  for (const auto& iv : variables_[t.var].mapping) {
    if (abs >= iv.begin && abs < iv.end) return iv.tile;
  }
  REPRO_REQUIRE(false, "element %zu of variable '%s' is unmapped", abs,
                variables_[t.var].name.c_str());
  return 0;
}

ComputeSetId Graph::addComputeSet(const std::string& name) {
  compute_sets_.push_back({name});
  cs_vertices_.emplace_back();
  return static_cast<ComputeSetId>(compute_sets_.size() - 1);
}

VertexId Graph::addVertex(ComputeSetId cs, const std::string& codelet,
                          std::size_t tile) {
  REPRO_REQUIRE(cs < compute_sets_.size(), "bad compute set id");
  REPRO_REQUIRE(tile < arch_.num_tiles, "vertex tile %zu out of range", tile);
  Vertex v;
  v.codelet = codelet;
  v.tile = tile;
  v.cs = cs;
  vertices_.push_back(std::move(v));
  const VertexId id = static_cast<VertexId>(vertices_.size() - 1);
  cs_vertices_[cs].push_back(id);
  return id;
}

void Graph::connect(VertexId v, const std::string& field, const Tensor& t,
                    bool is_output) {
  REPRO_REQUIRE(v < vertices_.size(), "bad vertex id");
  REPRO_REQUIRE(t.valid() && t.numel > 0, "connecting empty tensor to '%s'",
                field.c_str());
  vertices_[v].edges.push_back({field, t, is_output});
  ++num_edges_;
}

void Graph::setInitialValue(VertexId v, const std::string& name, double value) {
  vertices_[v].immediates[name] = value;
}

void Graph::setVertexState(VertexId v, std::vector<float> state) {
  vertices_[v].state = std::move(state);
}

const std::vector<VertexId>& Graph::verticesInCs(ComputeSetId cs) const {
  REPRO_REQUIRE(cs < cs_vertices_.size(), "bad compute set id");
  return cs_vertices_[cs];
}

void ForEachMappedRange(
    const Graph& graph, const Tensor& view,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const auto& mapping = graph.variables()[view.var].mapping;
  const std::size_t begin = view.offset;
  const std::size_t end = view.offset + view.numel;
  // Binary search for the first interval containing `begin`.
  auto it = std::upper_bound(mapping.begin(), mapping.end(), begin,
                             [](std::size_t v, const MappedInterval& iv) {
                               return v < iv.end;
                             });
  std::size_t cursor = begin;
  for (; it != mapping.end() && cursor < end; ++it) {
    REPRO_REQUIRE(it->begin <= cursor,
                  "unmapped element %zu in variable '%s'", cursor,
                  graph.variables()[view.var].name.c_str());
    const std::size_t stop = std::min(it->end, end);
    fn(it->tile, cursor, stop - cursor);
    cursor = stop;
  }
  REPRO_REQUIRE(cursor == end, "unmapped tail of variable '%s'",
                graph.variables()[view.var].name.c_str());
}

}  // namespace repro::ipu
