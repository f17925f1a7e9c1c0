#include "ipusim/profiler.h"

#include <sstream>

namespace repro::ipu {

std::string GraphCounts::ToJson() const {
  std::ostringstream os;
  os << "{\"vertices\": " << vertices << ", \"edges\": " << edges
     << ", \"variables\": " << variables
     << ", \"compute_sets\": " << compute_sets
     << ", \"total_bytes\": " << total_bytes
     << ", \"free_bytes\": " << free_bytes
     << ", \"max_tile_bytes\": " << max_tile_bytes
     << ", \"exchange_buffer_bytes\": " << exchange_buffer_bytes << "}";
  return os.str();
}

GraphCounts CountsOf(const Executable& exe) {
  GraphCounts c;
  c.vertices = exe.stats.num_vertices;
  c.edges = exe.stats.num_edges;
  c.variables = exe.stats.num_variables;
  c.compute_sets = exe.stats.num_compute_sets;
  c.total_bytes = exe.stats.total_bytes;
  c.free_bytes = exe.stats.free_bytes;
  c.max_tile_bytes = exe.stats.max_tile_bytes;
  c.exchange_buffer_bytes = exe.stats.bytesFor(MemCategory::kExchangeBuffers);
  return c;
}

}  // namespace repro::ipu
