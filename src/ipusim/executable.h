// ipu::Executable -- the immutable, serializable product of compilation.
//
// Mirrors poplar::Executable's role in the real SDK: everything an engine
// needs to run (and nothing it mutates) lives here, detached from the
// Session that produced it. An Executable owns an immutable snapshot of the
// graph it was compiled from, so it is fully self-contained: it can be
// saved to disk, loaded in a different process, and instantiated into many
// replica engines (Session::makeReplica, serve::ReplicaPool).
//
// Serialized form: a versioned, deterministic binary encoding. Two compiles
// of the same graph with the same options produce bitwise-identical bytes,
// which is what makes the content-addressed compile cache (exe_cache.h) and
// the cold-vs-warm byte-equality gates in scripts/check.sh possible. Host
// wall-clock quantities (PassReport::seconds) are excluded from the bytes;
// a loaded artifact reports 0 for them.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ipusim/codelet.h"
#include "ipusim/graph.h"
#include "ipusim/program.h"
#include "util/error.h"

namespace repro::ipu {

inline constexpr std::size_t kNumMemCategories =
    static_cast<std::size_t>(MemCategory::kCount);

// Bumped whenever the byte layout below changes; Load() rejects artifacts
// written by any other version with a clean Status (never a crash).
// v2: appended the KernelPlan section (codelet.h).
// v3: appended the host-stream descriptor section (HostStream below).
// v4: dropped the KernelPlan's enabled byte; every artifact carries a plan.
inline constexpr std::uint32_t kExecutableFormatVersion = 4;

struct TileLedger {
  std::array<std::size_t, kNumMemCategories> bytes{};

  std::size_t total() const {
    std::size_t t = 0;
    for (auto b : bytes) t += b;
    return t;
  }
  std::size_t& operator[](MemCategory c) {
    return bytes[static_cast<std::size_t>(c)];
  }
  std::size_t operator[](MemCategory c) const {
    return bytes[static_cast<std::size_t>(c)];
  }
};

// Exchange cost summary for one compute set (or one copy).
struct ExchangePlan {
  std::size_t total_bytes = 0;        // bytes crossing tile boundaries
  std::size_t max_tile_incoming = 0;  // bottleneck tile's receive bytes
  // Lowest tile id achieving max_tile_incoming (0 when nothing crosses);
  // surfaces in the engine's exchange-phase trace spans.
  std::size_t bottleneck_tile = 0;
};

// A compute set as the engine runs it. Ids [0, graph.computeSets().size())
// mirror the graph's compute sets; fusion appends merged entries beyond
// them and rewrites the program to execute the merged id instead.
struct LoweredComputeSet {
  std::string name;
  // Execution order: program order of the merged members, emission order
  // within each member. The engine's serial flop accumulation follows it.
  std::vector<VertexId> vertices;
};

// One double-buffered host FIFO endpoint, collected by the validate pass
// from the program's StreamIn/StreamOut ops. The ledger charges the second
// buffer's footprint per tile, and the engine keys its per-stream prefetch
// state off these descriptors (dir + tensor identity).
struct HostStream {
  enum class Dir : std::uint8_t { kIn = 0, kOut = 1 };
  Dir dir = Dir::kIn;
  Tensor tensor;
};

// What one compiler pass did, for CompileStats::ToJson() and the profiler.
struct PassReport {
  std::string pass;
  std::size_t objects_before = 0;  // pass-specific unit (CSs, variables, ...)
  std::size_t objects_after = 0;
  std::size_t bytes_saved = 0;
  // Host wall clock; excluded from determinism checks AND from the
  // serialized artifact bytes (a loaded executable reports 0 here).
  double seconds = 0.0;

  std::string ToJson() const;
};

struct CompileStats {
  std::size_t num_variables = 0;
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;
  std::size_t num_compute_sets = 0;  // compute sets reachable from program
  std::array<std::size_t, kNumMemCategories> category_bytes{};
  std::size_t total_bytes = 0;
  std::size_t max_tile_bytes = 0;
  std::size_t free_bytes = 0;  // device total minus allocated
  std::vector<PassReport> pass_reports;

  std::size_t bytesFor(MemCategory c) const {
    return category_bytes[static_cast<std::size_t>(c)];
  }

  // Counts, category bytes and the per-pass reports as one JSON object.
  std::string ToJson() const;
};

struct Executable {
  // Immutable snapshot of the compiled graph (including its IpuArch, the
  // artifact's architecture fingerprint). Engines resolve vertices, tensor
  // storage and cycle models against this copy, never against the Session's
  // mutable build graph -- which is what lets a loaded artifact run in a
  // process that never built a graph at all.
  std::shared_ptr<const Graph> graph;
  Program program;
  CompileStats stats;
  std::vector<TileLedger> tiles;
  // Indexed by lowered ComputeSetId; zero-filled entries for compute sets
  // the program never executes.
  std::vector<ExchangePlan> cs_exchange;
  // Compute sets by lowered id: graph compute sets first, fused merges
  // after. The engine executes these, never graph.verticesInCs().
  std::vector<LoweredComputeSet> lowered_cs;
  // Vertex dispatch tables from the specialize-kernels pass: the only way
  // the engine runs vertices. See codelet.h for the types.
  KernelPlan kernel_plan;
  // Host FIFO endpoints in first-appearance program order (validate pass).
  // Empty for programs without StreamIn/StreamOut ops.
  std::vector<HostStream> streams;

  const IpuArch& arch() const { return graph->arch(); }

  // Deterministic, versioned byte encoding (PassReport::seconds excluded).
  // Serialize(Deserialize(b)) == b for every valid artifact b.
  std::vector<std::uint8_t> Serialize() const;
  static StatusOr<Executable> Deserialize(std::span<const std::uint8_t> bytes);

  // File round trip over Serialize/Deserialize. Load returns a clean
  // InvalidArgument for missing, truncated, corrupt, or version-mismatched
  // files -- never a crash.
  Status Save(const std::string& path) const;
  static StatusOr<Executable> Load(const std::string& path);
};

inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ull;

// FNV-1a 64-bit over a byte string, continued from hash state `h`.
std::uint64_t Fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t h = kFnv1a64Basis);

// Fnv1a64 continued from `h` over the canonical encodings of `graph` and
// then `program`: the bytes Serialize() writes for them, hashed as they are
// encoded instead of materialised. The compile cache's content hash
// (exe_cache.h).
std::uint64_t Fnv1a64(const Graph& graph, const Program& program,
                      std::uint64_t h);

}  // namespace repro::ipu
