#include "ipusim/executable.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace repro::ipu {
namespace {

// 8-byte artifact magic; the trailing version byte is NOT the format
// version (that is a separate u32 so mismatches get a precise message).
constexpr std::uint8_t kMagic[8] = {'I', 'P', 'U', 'E', 'X', 'E', '\r', '\n'};

// Structural sanity bound for every deserialized container size: generous
// for any realistic artifact, small enough that a corrupt length prefix
// fails cleanly instead of driving a multi-gigabyte allocation.
constexpr std::uint64_t kMaxCount = 1ull << 32;

// --- little-endian primitive writers -------------------------------------
// Fixed-width little-endian regardless of host order; doubles/floats are
// emitted as their raw IEEE-754 bits, so a round trip is bit-exact and the
// encoding is deterministic (the artifact-byte contract). The writers feed a
// ByteSink run by one encoder template: CountSink sizes the artifact,
// BufferSink then stores it into a buffer of exactly that size, and HashSink
// folds the same bytes into FNV-1a one at a time without storing them (the
// compile cache's key).

template <typename S>
concept ByteSink = requires(S sink, const void* p, std::size_t n) {
  sink.Put(p, n);
};

struct CountSink {
  std::size_t n = 0;
  void Put(const void*, std::size_t len) { n += len; }
};

struct BufferSink {
  std::uint8_t* p;
  void Put(const void* src, std::size_t len) {
    if (len != 0) std::memcpy(p, src, len);
    p += len;
  }
};

struct HashSink {
  std::uint64_t h;
  void Put(const void* src, std::size_t len) {
    const auto* b = static_cast<const std::uint8_t*>(src);
    for (std::size_t i = 0; i < len; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  }
};

// A host word as its little-endian artifact bytes, and back.
template <typename T>
T LittleEndian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    std::uint8_t b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    std::reverse(b, b + sizeof(T));
    std::memcpy(&v, b, sizeof(T));
  }
  return v;
}

template <typename T>
void PutWord(ByteSink auto& out, T v) {
  v = LittleEndian(v);
  out.Put(&v, sizeof(T));
}
void PutU64(ByteSink auto& out, std::uint64_t v) { PutWord(out, v); }
void PutU32(ByteSink auto& out, std::uint32_t v) { PutWord(out, v); }
void PutU8(ByteSink auto& out, std::uint8_t v) { PutWord(out, v); }
void PutF64(ByteSink auto& out, double v) { PutWord(out, v); }
void PutString(ByteSink auto& out, const std::string& s) {
  PutU64(out, s.size());
  out.Put(s.data(), s.size());
}
// A counted array of fixed-width scalars: on a little-endian host its
// elements are already their artifact bytes, so they go in one copy.
template <typename T>
void PutArray(ByteSink auto& out, const std::vector<T>& v) {
  PutU64(out, v.size());
  if constexpr (std::endian::native == std::endian::little) {
    out.Put(v.data(), v.size() * sizeof(T));
  } else {
    for (T x : v) PutWord(out, x);
  }
}

// --- bounds-checked reader ----------------------------------------------
// Every Take* checks remaining bytes; the first failure latches `failed` and
// subsequent reads return zeros, so a truncated or corrupt artifact falls
// through to one clean Status at the end instead of crashing mid-parse.
struct Reader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;
  bool failed = false;

  bool need(std::size_t n) {
    if (failed || bytes.size() - pos < n) {
      failed = true;
      return false;
    }
    return true;
  }
  template <typename T>
  T TakeWord() {
    T v{};
    if (!need(sizeof(T))) return v;
    std::memcpy(&v, bytes.data() + pos, sizeof(T));
    pos += sizeof(T);
    return LittleEndian(v);
  }
  std::uint64_t TakeU64() { return TakeWord<std::uint64_t>(); }
  std::uint32_t TakeU32() { return TakeWord<std::uint32_t>(); }
  std::uint8_t TakeU8() { return TakeWord<std::uint8_t>(); }
  double TakeF64() { return TakeWord<double>(); }
  // Container length prefix. `min_bytes` is an element's smallest encoding:
  // its fixed-width fields plus 8 bytes for each string or container it
  // holds. A count the bytes left cannot hold fails here, before anything
  // reserves that many elements.
  std::uint64_t TakeCount(std::size_t min_bytes) {
    const std::uint64_t n = TakeU64();
    if (n > kMaxCount || (!failed && n > (bytes.size() - pos) / min_bytes)) {
      failed = true;
    }
    return failed ? 0 : n;
  }
  std::string TakeString() {
    const std::uint64_t n = TakeCount(1);
    std::string s(reinterpret_cast<const char*>(bytes.data() + pos), n);
    pos += n;
    return s;
  }
  // The counterpart of PutArray: one length check, then one copy.
  template <typename T>
  void TakeArray(std::vector<T>& v) {
    v.resize(TakeCount(sizeof(T)));
    if (v.empty()) return;
    std::memcpy(v.data(), bytes.data() + pos, v.size() * sizeof(T));
    pos += v.size() * sizeof(T);
    if constexpr (std::endian::native == std::endian::big) {
      for (T& x : v) x = LittleEndian(x);
    }
  }
};

// --- graph / program encodings ------------------------------------------

void PutArch(ByteSink auto& out, const IpuArch& a) {
  PutU64(out, a.num_tiles);
  PutU64(out, a.threads_per_tile);
  PutU64(out, a.tile_memory_bytes);
  PutF64(out, a.clock_hz);
  PutF64(out, a.amp_macs_per_cycle);
  PutF64(out, a.amp_setup_cycles);
  PutF64(out, a.scalar_cycles_per_mac);
  PutF64(out, a.simd_flops_per_cycle);
  PutF64(out, a.exchange_bytes_per_cycle);
  PutF64(out, a.exchange_sync_cycles);
  PutF64(out, a.compute_sync_cycles);
  PutF64(out, a.vertex_dispatch_cycles);
  PutU64(out, a.streaming_memory_bytes);
  PutF64(out, a.host_bandwidth_bytes_per_sec);
}

IpuArch TakeArch(Reader& r) {
  IpuArch a;
  a.num_tiles = r.TakeU64();
  a.threads_per_tile = r.TakeU64();
  a.tile_memory_bytes = r.TakeU64();
  a.clock_hz = r.TakeF64();
  a.amp_macs_per_cycle = r.TakeF64();
  a.amp_setup_cycles = r.TakeF64();
  a.scalar_cycles_per_mac = r.TakeF64();
  a.simd_flops_per_cycle = r.TakeF64();
  a.exchange_bytes_per_cycle = r.TakeF64();
  a.exchange_sync_cycles = r.TakeF64();
  a.compute_sync_cycles = r.TakeF64();
  a.vertex_dispatch_cycles = r.TakeF64();
  a.streaming_memory_bytes = r.TakeU64();
  a.host_bandwidth_bytes_per_sec = r.TakeF64();
  return a;
}

void PutTensor(ByteSink auto& out, const Tensor& t) {
  PutU32(out, t.var);
  PutU64(out, t.offset);
  PutU64(out, t.numel);
  PutU64(out, t.rows);
  PutU64(out, t.cols);
}

Tensor TakeTensor(Reader& r) {
  Tensor t;
  t.var = r.TakeU32();
  t.offset = r.TakeU64();
  t.numel = r.TakeU64();
  t.rows = r.TakeU64();
  t.cols = r.TakeU64();
  return t;
}

// True when `t` views an existing variable of `vars` and lies within its
// elements. Decided without forming offset + numel, which a hostile
// artifact can make wrap.
bool ViewInGraph(const Tensor& t, const std::vector<Variable>& vars) {
  return t.var < vars.size() && t.offset <= vars[t.var].numel &&
         t.numel <= vars[t.var].numel - t.offset;
}

void PutProgram(ByteSink auto& out, const Program& p) {
  PutU8(out, static_cast<std::uint8_t>(p.kind));
  PutU32(out, p.cs);
  PutTensor(out, p.src);
  PutTensor(out, p.dst);
  PutU64(out, p.repeat_count);
  PutU64(out, p.children.size());
  for (const Program& c : p.children) PutProgram(out, c);
}

Program TakeProgram(Reader& r, std::size_t depth = 0) {
  Program p;
  // A corrupt child count must not recurse unboundedly; real program trees
  // are a handful of levels deep.
  if (depth > 64) {
    r.failed = true;
    return p;
  }
  const std::uint8_t kind = r.TakeU8();
  if (kind > static_cast<std::uint8_t>(Program::Kind::kStreamOut)) {
    r.failed = true;
    return p;
  }
  p.kind = static_cast<Program::Kind>(kind);
  p.cs = r.TakeU32();
  p.src = TakeTensor(r);
  p.dst = TakeTensor(r);
  p.repeat_count = r.TakeU64();
  const std::uint64_t n = r.TakeCount(93);
  p.children.reserve(r.failed ? 0 : n);
  for (std::uint64_t i = 0; i < n && !r.failed; ++i) {
    p.children.push_back(TakeProgram(r, depth + 1));
  }
  return p;
}

StatusOr<Graph> TakeGraph(Reader& r) {
  const IpuArch arch = TakeArch(r);

  std::vector<Variable> variables;
  const std::uint64_t nvars = r.TakeCount(40);
  variables.reserve(nvars);
  for (std::uint64_t i = 0; i < nvars && !r.failed; ++i) {
    Variable v;
    v.name = r.TakeString();
    v.numel = r.TakeU64();
    v.rows = r.TakeU64();
    v.cols = r.TakeU64();
    const std::uint64_t nmap = r.TakeCount(24);
    v.mapping.reserve(nmap);
    for (std::uint64_t m = 0; m < nmap && !r.failed; ++m) {
      MappedInterval iv;
      iv.begin = r.TakeU64();
      iv.end = r.TakeU64();
      iv.tile = r.TakeU64();
      v.mapping.push_back(iv);
    }
    variables.push_back(std::move(v));
  }

  std::vector<ComputeSet> compute_sets;
  const std::uint64_t ncs = r.TakeCount(8);
  compute_sets.reserve(ncs);
  for (std::uint64_t i = 0; i < ncs && !r.failed; ++i) {
    compute_sets.push_back({r.TakeString()});
  }

  std::vector<Vertex> vertices;
  const std::uint64_t nverts = r.TakeCount(44);
  vertices.reserve(nverts);
  for (std::uint64_t i = 0; i < nverts && !r.failed; ++i) {
    Vertex v;
    v.codelet = r.TakeString();
    v.tile = r.TakeU64();
    v.cs = r.TakeU32();
    const std::uint64_t nedges = r.TakeCount(45);
    v.edges.reserve(nedges);
    for (std::uint64_t e = 0; e < nedges && !r.failed; ++e) {
      Edge edge;
      edge.field = r.TakeString();
      edge.view = TakeTensor(r);
      edge.is_output = r.TakeU8() != 0;
      v.edges.push_back(std::move(edge));
    }
    const std::uint64_t nimm = r.TakeCount(16);
    for (std::uint64_t m = 0; m < nimm && !r.failed; ++m) {
      std::string name = r.TakeString();
      v.immediates[std::move(name)] = r.TakeF64();
    }
    r.TakeArray(v.state);
    vertices.push_back(std::move(v));
  }

  if (r.failed) return Status::InvalidArgument("truncated graph section");
  // Structural referential checks here (rather than the fatal ones inside
  // FromParts) so a corrupt artifact surfaces as a Status.
  for (const Vertex& v : vertices) {
    if (v.cs >= compute_sets.size() || v.tile >= arch.num_tiles) {
      return Status::InvalidArgument("artifact graph references missing "
                                     "compute set or out-of-range tile");
    }
    for (const Edge& e : v.edges) {
      if (!ViewInGraph(e.view, variables)) {
        return Status::InvalidArgument(
            "artifact graph edge references out-of-range variable view");
      }
    }
  }
  return Graph::FromParts(arch, std::move(variables), std::move(compute_sets),
                          std::move(vertices));
}

void PutStats(ByteSink auto& out, const CompileStats& s) {
  PutU64(out, s.num_variables);
  PutU64(out, s.num_vertices);
  PutU64(out, s.num_edges);
  PutU64(out, s.num_compute_sets);
  for (std::size_t c = 0; c < kNumMemCategories; ++c) {
    PutU64(out, s.category_bytes[c]);
  }
  PutU64(out, s.total_bytes);
  PutU64(out, s.max_tile_bytes);
  PutU64(out, s.free_bytes);
  PutU64(out, s.pass_reports.size());
  for (const PassReport& p : s.pass_reports) {
    PutString(out, p.pass);
    PutU64(out, p.objects_before);
    PutU64(out, p.objects_after);
    PutU64(out, p.bytes_saved);
    // PassReport::seconds is host wall clock: deliberately NOT serialized,
    // so two compiles of the same graph produce bitwise-identical bytes.
  }
}

CompileStats TakeStats(Reader& r) {
  CompileStats s;
  s.num_variables = r.TakeU64();
  s.num_vertices = r.TakeU64();
  s.num_edges = r.TakeU64();
  s.num_compute_sets = r.TakeU64();
  for (std::size_t c = 0; c < kNumMemCategories; ++c) {
    s.category_bytes[c] = r.TakeU64();
  }
  s.total_bytes = r.TakeU64();
  s.max_tile_bytes = r.TakeU64();
  s.free_bytes = r.TakeU64();
  const std::uint64_t n = r.TakeCount(32);
  s.pass_reports.reserve(n);
  for (std::uint64_t i = 0; i < n && !r.failed; ++i) {
    PassReport p;
    p.pass = r.TakeString();
    p.objects_before = r.TakeU64();
    p.objects_after = r.TakeU64();
    p.bytes_saved = r.TakeU64();
    p.seconds = 0.0;  // excluded from the artifact by design
    s.pass_reports.push_back(std::move(p));
  }
  return s;
}

void PutKernelPlan(ByteSink auto& out, const KernelPlan& plan) {
  PutU64(out, plan.codelets.size());
  for (const KernelCodelet& c : plan.codelets) {
    PutString(out, c.name);
    PutU64(out, c.fields.size());
    for (const std::string& f : c.fields) PutString(out, f);
    PutU64(out, c.imms.size());
    for (const std::string& m : c.imms) PutString(out, m);
  }
  PutU64(out, plan.groups.size());
  for (const KernelGroup& g : plan.groups) {
    PutU32(out, g.cs);
    PutU32(out, g.codelet);
    PutU64(out, g.tile);
    PutArray(out, g.vertices);
    PutArray(out, g.edge_start);
    PutU64(out, g.edges.size());
    for (const Tensor& t : g.edges) PutTensor(out, t);
    PutArray(out, g.imm_values);
    PutArray(out, g.imm_present);
  }
  PutArray(out, plan.vertex_cycles);
  PutArray(out, plan.vertex_flops);
}

KernelPlan TakeKernelPlan(Reader& r) {
  KernelPlan plan;
  const std::uint64_t ncod = r.TakeCount(24);
  plan.codelets.reserve(ncod);
  for (std::uint64_t i = 0; i < ncod && !r.failed; ++i) {
    KernelCodelet c;
    c.name = r.TakeString();
    const std::uint64_t nf = r.TakeCount(8);
    c.fields.reserve(nf);
    for (std::uint64_t f = 0; f < nf && !r.failed; ++f) {
      c.fields.push_back(r.TakeString());
    }
    const std::uint64_t nm = r.TakeCount(8);
    c.imms.reserve(nm);
    for (std::uint64_t m = 0; m < nm && !r.failed; ++m) {
      c.imms.push_back(r.TakeString());
    }
    plan.codelets.push_back(std::move(c));
  }
  const std::uint64_t ngroups = r.TakeCount(56);
  plan.groups.reserve(ngroups);
  for (std::uint64_t i = 0; i < ngroups && !r.failed; ++i) {
    KernelGroup g;
    g.cs = r.TakeU32();
    g.codelet = r.TakeU32();
    g.tile = r.TakeU64();
    r.TakeArray(g.vertices);
    r.TakeArray(g.edge_start);
    const std::uint64_t ne = r.TakeCount(36);
    g.edges.reserve(ne);
    for (std::uint64_t e = 0; e < ne && !r.failed; ++e) {
      g.edges.push_back(TakeTensor(r));
    }
    r.TakeArray(g.imm_values);
    r.TakeArray(g.imm_present);
    plan.groups.push_back(std::move(g));
  }
  r.TakeArray(plan.vertex_cycles);
  r.TakeArray(plan.vertex_flops);
  return plan;
}

// Referential integrity of a deserialized plan against the graph and lowered
// tables: the engine indexes all of these with REPRO_REQUIRE-level trust and
// runs vertices only through the plan, so every codelet must be registered,
// groups must be sorted by compute set, and each compute set the program
// executes (`executed`, by lowered id) must be covered exactly once by its
// groups, each vertex under its own codelet and tile.
Status ValidateKernelPlan(const KernelPlan& plan, const Graph& graph,
                          const std::vector<LoweredComputeSet>& lowered,
                          const std::vector<std::uint8_t>& executed) {
  const std::vector<Vertex>& vertices = graph.vertices();
  const std::size_t nverts = vertices.size();
  if (plan.vertex_cycles.size() != nverts ||
      plan.vertex_flops.size() != nverts) {
    return Status::InvalidArgument(
        "artifact kernel plan cycle/flop tables do not cover the graph");
  }
  const CodeletRegistry& registry = CodeletRegistry::Get();
  for (const KernelCodelet& c : plan.codelets) {
    if (!registry.Has(c.name)) {
      return Status::InvalidArgument(
          "artifact kernel plan names unregistered codelet '" + c.name + "'");
    }
  }
  // stamp[v] == cs + 1 while vertex v is claimed by a group of compute set
  // cs and not yet matched against the lowered table.
  std::vector<std::uint32_t> stamp(nverts, 0);
  std::size_t gi = 0;
  for (ComputeSetId cs = 0; cs < lowered.size(); ++cs) {
    std::size_t claimed = 0;
    for (; gi < plan.groups.size() && plan.groups[gi].cs == cs; ++gi) {
      const KernelGroup& g = plan.groups[gi];
      if (g.codelet >= plan.codelets.size() ||
          g.tile >= graph.arch().num_tiles || g.vertices.empty()) {
        return Status::InvalidArgument(
            "artifact kernel plan group references missing codelet or tile");
      }
      const KernelCodelet& c = plan.codelets[g.codelet];
      for (VertexId v : g.vertices) {
        if (v >= nverts) {
          return Status::InvalidArgument(
              "artifact kernel plan group references missing vertex");
        }
        if (vertices[v].tile != g.tile || vertices[v].codelet != c.name) {
          return Status::InvalidArgument(
              "artifact kernel plan group vertex has another codelet or tile");
        }
        if (stamp[v] == cs + 1) {
          return Status::InvalidArgument(
              "artifact kernel plan runs a vertex twice in one compute set");
        }
        stamp[v] = cs + 1;
      }
      claimed += g.vertices.size();
      const std::size_t nv = g.vertices.size();
      if (g.edge_start.size() != c.fields.size() * (nv + 1) ||
          g.imm_values.size() != c.imms.size() * nv ||
          g.imm_present.size() != g.imm_values.size()) {
        return Status::InvalidArgument(
            "artifact kernel plan group tables are inconsistently sized");
      }
      std::uint32_t prev = 0;
      for (std::size_t i = 0; i < g.edge_start.size(); ++i) {
        const std::uint32_t e = g.edge_start[i];
        if (e < prev || e > g.edges.size() || (i == 0 && e != 0)) {
          return Status::InvalidArgument(
              "artifact kernel plan edge offsets are not a valid CSR table");
        }
        prev = e;
      }
      if (!g.edge_start.empty() && g.edge_start.back() != g.edges.size()) {
        return Status::InvalidArgument(
            "artifact kernel plan edge offsets do not cover the edge table");
      }
      if (g.edge_start.empty() && !g.edges.empty()) {
        return Status::InvalidArgument(
            "artifact kernel plan edge table has no offsets");
      }
      for (const Tensor& t : g.edges) {
        if (!ViewInGraph(t, graph.variables())) {
          return Status::InvalidArgument(
              "artifact kernel plan edge references out-of-range variable "
              "view");
        }
      }
    }
    if (!executed[cs]) continue;
    // Unstamping makes a duplicate lowered entry fail, so the count match
    // below means the groups hold exactly the lowered vertices.
    for (VertexId v : lowered[cs].vertices) {
      if (stamp[v] != cs + 1) {
        return Status::InvalidArgument(
            "artifact kernel plan does not run every vertex of an executed "
            "compute set");
      }
      stamp[v] = 0;
    }
    if (claimed != lowered[cs].vertices.size()) {
      return Status::InvalidArgument(
          "artifact kernel plan runs vertices outside their compute set");
    }
  }
  if (gi != plan.groups.size()) {
    return Status::InvalidArgument(
        "artifact kernel plan groups are not sorted by compute set or name a "
        "missing compute set");
  }
  return Status::Ok();
}

}  // namespace

std::string PassReport::ToJson() const {
  char sec_buf[64];
  std::snprintf(sec_buf, sizeof(sec_buf), "%.6g", seconds);
  std::ostringstream os;
  os << "{\"pass\": \"" << pass << "\", \"objects_before\": " << objects_before
     << ", \"objects_after\": " << objects_after
     << ", \"bytes_saved\": " << bytes_saved << ", \"seconds\": " << sec_buf
     << "}";
  return os.str();
}

std::string CompileStats::ToJson() const {
  std::ostringstream os;
  os << "{\"num_variables\": " << num_variables
     << ", \"num_vertices\": " << num_vertices
     << ", \"num_edges\": " << num_edges
     << ", \"num_compute_sets\": " << num_compute_sets
     << ", \"total_bytes\": " << total_bytes
     << ", \"max_tile_bytes\": " << max_tile_bytes
     << ", \"free_bytes\": " << free_bytes << ", \"category_bytes\": {";
  for (std::size_t c = 0; c < kNumMemCategories; ++c) {
    os << (c == 0 ? "" : ", ") << "\""
       << MemCategoryName(static_cast<MemCategory>(c))
       << "\": " << category_bytes[c];
  }
  os << "}, \"passes\": [";
  for (std::size_t i = 0; i < pass_reports.size(); ++i) {
    os << (i == 0 ? "" : ", ") << pass_reports[i].ToJson();
  }
  os << "]}";
  return os.str();
}

namespace {

// The graph's canonical encoding, shared by the artifact and the cache key:
// every container in index or sorted-key order.
void PutGraph(ByteSink auto& out, const Graph& graph) {
  PutArch(out, graph.arch());
  PutU64(out, graph.variables().size());
  for (const Variable& v : graph.variables()) {
    PutString(out, v.name);
    PutU64(out, v.numel);
    PutU64(out, v.rows);
    PutU64(out, v.cols);
    PutU64(out, v.mapping.size());
    for (const MappedInterval& iv : v.mapping) {
      PutU64(out, iv.begin);
      PutU64(out, iv.end);
      PutU64(out, iv.tile);
    }
  }
  PutU64(out, graph.computeSets().size());
  for (const ComputeSet& cs : graph.computeSets()) PutString(out, cs.name);
  PutU64(out, graph.vertices().size());
  for (const Vertex& v : graph.vertices()) {
    PutString(out, v.codelet);
    PutU64(out, v.tile);
    PutU32(out, v.cs);
    PutU64(out, v.edges.size());
    for (const Edge& e : v.edges) {
      PutString(out, e.field);
      PutTensor(out, e.view);
      PutU8(out, e.is_output ? 1 : 0);
    }
    // std::map iterates in sorted key order: deterministic by construction.
    PutU64(out, v.immediates.size());
    for (const auto& [name, value] : v.immediates) {
      PutString(out, name);
      PutF64(out, value);
    }
    PutArray(out, v.state);
  }
}

// Everything Serialize writes but the trailing checksum.
void PutExecutable(ByteSink auto& out, const Executable& exe) {
  out.Put(kMagic, sizeof(kMagic));
  PutU32(out, kExecutableFormatVersion);
  PutGraph(out, *exe.graph);
  PutProgram(out, exe.program);
  PutStats(out, exe.stats);
  PutU64(out, exe.tiles.size());
  for (const TileLedger& t : exe.tiles) {
    for (std::size_t c = 0; c < kNumMemCategories; ++c) PutU64(out, t.bytes[c]);
  }
  PutU64(out, exe.cs_exchange.size());
  for (const ExchangePlan& p : exe.cs_exchange) {
    PutU64(out, p.total_bytes);
    PutU64(out, p.max_tile_incoming);
    PutU64(out, p.bottleneck_tile);
  }
  PutU64(out, exe.lowered_cs.size());
  for (const LoweredComputeSet& cs : exe.lowered_cs) {
    PutString(out, cs.name);
    PutArray(out, cs.vertices);
  }
  PutKernelPlan(out, exe.kernel_plan);
  PutU64(out, exe.streams.size());
  for (const HostStream& hs : exe.streams) {
    PutU8(out, static_cast<std::uint8_t>(hs.dir));
    PutTensor(out, hs.tensor);
  }
}

}  // namespace

std::uint64_t Fnv1a64(std::span<const std::uint8_t> bytes, std::uint64_t h) {
  HashSink sink{h};
  sink.Put(bytes.data(), bytes.size());
  return sink.h;
}

std::uint64_t Fnv1a64(const Graph& graph, const Program& program,
                      std::uint64_t h) {
  HashSink sink{h};
  PutGraph(sink, graph);
  PutProgram(sink, program);
  return sink.h;
}

std::vector<std::uint8_t> Executable::Serialize() const {
  REPRO_REQUIRE(graph != nullptr, "Serialize on an empty Executable");
  CountSink size;
  PutExecutable(size, *this);
  std::vector<std::uint8_t> bytes(size.n + 8);
  BufferSink out{bytes.data()};
  PutExecutable(out, *this);
  // Trailing integrity checksum over everything above. The payload is mostly
  // raw IEEE-754 bits, where a flipped byte still parses as a valid float;
  // without this, mid-file corruption would load silently.
  PutU64(out, Fnv1a64(std::span(bytes).first(size.n)));
  return bytes;
}

StatusOr<Executable> Executable::Deserialize(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < sizeof(kMagic) + 4 + 8 ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "not an ipu::Executable artifact (bad magic or short file)");
  }
  // Version first: a future format may move the checksum, and "version
  // mismatch" is the actionable message for it.
  Reader r{bytes, sizeof(kMagic)};
  const std::uint32_t version = r.TakeU32();
  if (version != kExecutableFormatVersion) {
    return Status::InvalidArgument(
        "ipu::Executable format version mismatch: artifact v" +
        std::to_string(version) + ", this build reads v" +
        std::to_string(kExecutableFormatVersion));
  }
  // The last 8 bytes are the FNV-1a checksum of everything before them.
  const std::size_t payload = bytes.size() - 8;
  if (Fnv1a64(bytes.first(payload)) != Reader{bytes, payload}.TakeU64()) {
    return Status::InvalidArgument(
        "corrupt executable artifact (checksum mismatch)");
  }
  bytes = bytes.first(payload);
  r.bytes = bytes;

  StatusOr<Graph> graph = TakeGraph(r);
  if (!graph.ok()) return graph.status();

  Executable exe;
  exe.graph = std::make_shared<const Graph>(graph.take());
  exe.program = TakeProgram(r);
  exe.stats = TakeStats(r);
  const std::uint64_t ntiles = r.TakeCount(8 * kNumMemCategories);
  exe.tiles.reserve(ntiles);
  for (std::uint64_t i = 0; i < ntiles && !r.failed; ++i) {
    TileLedger t;
    for (std::size_t c = 0; c < kNumMemCategories; ++c) {
      t.bytes[c] = r.TakeU64();
    }
    exe.tiles.push_back(t);
  }
  const std::uint64_t nex = r.TakeCount(24);
  exe.cs_exchange.reserve(nex);
  for (std::uint64_t i = 0; i < nex && !r.failed; ++i) {
    ExchangePlan p;
    p.total_bytes = r.TakeU64();
    p.max_tile_incoming = r.TakeU64();
    p.bottleneck_tile = r.TakeU64();
    exe.cs_exchange.push_back(p);
  }
  const std::uint64_t nlcs = r.TakeCount(16);
  exe.lowered_cs.reserve(nlcs);
  for (std::uint64_t i = 0; i < nlcs && !r.failed; ++i) {
    LoweredComputeSet cs;
    cs.name = r.TakeString();
    r.TakeArray(cs.vertices);
    exe.lowered_cs.push_back(std::move(cs));
  }
  exe.kernel_plan = TakeKernelPlan(r);
  const std::uint64_t nstreams = r.TakeCount(37);
  exe.streams.reserve(nstreams);
  for (std::uint64_t i = 0; i < nstreams && !r.failed; ++i) {
    HostStream hs;
    const std::uint8_t dir = r.TakeU8();
    if (dir > static_cast<std::uint8_t>(HostStream::Dir::kOut)) {
      r.failed = true;
      break;
    }
    hs.dir = static_cast<HostStream::Dir>(dir);
    hs.tensor = TakeTensor(r);
    exe.streams.push_back(hs);
  }
  if (r.failed) {
    return Status::InvalidArgument("truncated or corrupt executable artifact");
  }
  if (r.pos != bytes.size()) {
    return Status::InvalidArgument("trailing bytes after executable artifact");
  }

  // Cross-section referential checks: the engine indexes these tables with
  // REPRO_REQUIRE-level trust, so a corrupt artifact must be caught here.
  const std::size_t nverts = exe.graph->vertices().size();
  for (const LoweredComputeSet& cs : exe.lowered_cs) {
    for (VertexId v : cs.vertices) {
      if (v >= nverts) {
        return Status::InvalidArgument(
            "artifact lowered compute set references missing vertex");
      }
    }
  }
  // Walk the program tree for steps the engine would run out of bounds:
  // compute-set ids beyond the lowered table, tensor views outside the
  // graph, copies between views of different sizes (the engine moves
  // src.numel elements), bundles of non-copies and bodiless repeats (the
  // engine runs children.front()). The walk also collects the executed
  // compute sets for the kernel plan check.
  const auto& vars = exe.graph->variables();
  std::vector<std::uint8_t> executed(exe.lowered_cs.size(), 0);
  const std::function<bool(const Program&)> valid = [&](const Program& p) {
    switch (p.kind) {
      case Program::Kind::kExecute:
        if (p.cs >= exe.lowered_cs.size() || p.cs >= exe.cs_exchange.size()) {
          return false;
        }
        executed[p.cs] = 1;
        break;
      case Program::Kind::kCopy:
        if (!ViewInGraph(p.src, vars) || !ViewInGraph(p.dst, vars) ||
            p.src.numel != p.dst.numel) {
          return false;
        }
        break;
      case Program::Kind::kCopyBundle:
        for (const Program& c : p.children) {
          if (c.kind != Program::Kind::kCopy) return false;
        }
        break;
      case Program::Kind::kRepeat:
        if (p.children.size() != 1) return false;
        break;
      case Program::Kind::kHostWrite:
      case Program::Kind::kStreamIn:
        if (!ViewInGraph(p.dst, vars)) return false;
        break;
      case Program::Kind::kHostRead:
      case Program::Kind::kStreamOut:
        if (!ViewInGraph(p.src, vars)) return false;
        break;
      default:
        break;
    }
    for (const Program& c : p.children) {
      if (!valid(c)) return false;
    }
    return true;
  };
  if (!valid(exe.program)) {
    return Status::InvalidArgument(
        "artifact program has a step the engine cannot run: a compute set "
        "outside the lowered table, a tensor view outside the graph, a "
        "copy between views of different sizes, or a misshapen bundle or "
        "repeat");
  }
  if (Status plan_ok = ValidateKernelPlan(exe.kernel_plan, *exe.graph,
                                          exe.lowered_cs, executed);
      !plan_ok.ok()) {
    return plan_ok;
  }
  // Stream descriptors: each must name a valid in-range tensor view, and
  // every stream op in the program must have a matching descriptor (the
  // engine keys its per-stream FIFO state off the descriptor table).
  for (const HostStream& hs : exe.streams) {
    if (hs.tensor.numel == 0 || !ViewInGraph(hs.tensor, vars)) {
      return Status::InvalidArgument(
          "artifact host stream references out-of-range variable view");
    }
  }
  const auto covered = [&](HostStream::Dir dir, const Tensor& t) {
    for (const HostStream& hs : exe.streams) {
      if (hs.dir == dir && hs.tensor.var == t.var &&
          hs.tensor.offset == t.offset && hs.tensor.numel == t.numel) {
        return true;
      }
    }
    return false;
  };
  const std::function<bool(const Program&)> streams_ok =
      [&](const Program& p) {
        if (p.kind == Program::Kind::kStreamIn &&
            !covered(HostStream::Dir::kIn, p.dst)) {
          return false;
        }
        if (p.kind == Program::Kind::kStreamOut &&
            !covered(HostStream::Dir::kOut, p.src)) {
          return false;
        }
        for (const Program& c : p.children) {
          if (!streams_ok(c)) return false;
        }
        return true;
      };
  if (!streams_ok(exe.program)) {
    return Status::InvalidArgument(
        "artifact program streams a tensor with no host stream descriptor");
  }
  return exe;
}

Status Executable::Save(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = Serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return Status::InvalidArgument("short write to '" + path + "'");
  }
  return Status::Ok();
}

StatusOr<Executable> Executable::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::InvalidArgument("cannot open executable artifact '" + path +
                                   "'");
  }
  // A directory opens as a stream too, and its tellg() is no file size.
  const std::streamsize size = in.tellg();
  std::error_code ec;
  if (size < 0 || !std::filesystem::is_regular_file(path, ec)) {
    return Status::InvalidArgument("executable artifact '" + path +
                                   "' is not a regular file of known size");
  }
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) {
    return Status::InvalidArgument("short read from executable artifact '" +
                                   path + "'");
  }
  return Deserialize(bytes);
}

}  // namespace repro::ipu
