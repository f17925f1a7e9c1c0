// Graph counts of a compiled executable, PopVision-Graph-Analyzer style:
// vertices, edges, variables, compute sets and bytes. Fig. 5 and Fig. 7 of
// the paper are read straight off these counts (bench JSON `counts`); the
// per-category ledger they sum is CompileStats (ipusim/executable.h).
#pragma once

#include <string>

#include "ipusim/executable.h"

namespace repro::ipu {

// One-line CSV-ish summary used by the figure benches:
// n, vertices, edges, variables, compute_sets, total_bytes, free_bytes.
struct GraphCounts {
  std::size_t vertices = 0;
  std::size_t edges = 0;
  std::size_t variables = 0;
  std::size_t compute_sets = 0;
  std::size_t total_bytes = 0;
  std::size_t free_bytes = 0;
  std::size_t max_tile_bytes = 0;
  std::size_t exchange_buffer_bytes = 0;

  // Flat JSON object with every field, the schema the BENCH_*.json writers
  // rely on (mirrors RunReport::ToJson).
  std::string ToJson() const;
};

GraphCounts CountsOf(const Executable& exe);

}  // namespace repro::ipu
