#include "ipusim/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/trace.h"
#include "util/parallel.h"

namespace repro::ipu {

namespace {

// Process-wide host wall-clock tallies (engine.h). Mutex-guarded: updates
// happen once per engine construction and once per run(), never inside the
// per-vertex hot loops.
std::mutex g_host_stats_mu;
EngineHostStats g_host_stats;

void AccumulateBuildStats(double seconds, std::uint64_t vertices) {
  std::lock_guard<std::mutex> lock(g_host_stats_mu);
  g_host_stats.build_seconds += seconds;
  g_host_stats.build_vertices += vertices;
}

void AccumulateRunStats(double seconds, std::uint64_t vertices,
                        std::uint64_t dispatches) {
  std::lock_guard<std::mutex> lock(g_host_stats_mu);
  g_host_stats.run_seconds += seconds;
  g_host_stats.run_vertices += vertices;
  g_host_stats.run_dispatches += dispatches;
}

// Marks every variable a program step writes (Copy, CopyBundle, HostWrite
// and StreamIn destinations) in `written`.
void MarkProgramWrites(const Program& p, std::vector<bool>& written) {
  switch (p.kind) {
    case Program::Kind::kCopy:
    case Program::Kind::kHostWrite:
    case Program::Kind::kStreamIn:
      REPRO_REQUIRE(p.dst.var < written.size(),
                    "program writes variable %u, graph has %zu", p.dst.var,
                    written.size());
      written[p.dst.var] = true;
      break;
    default:
      break;
  }
  for (const Program& c : p.children) MarkProgramWrites(c, written);
}

}  // namespace

EngineHostStats EngineHostStatsSnapshot() {
  std::lock_guard<std::mutex> lock(g_host_stats_mu);
  return g_host_stats;
}

void ResetEngineHostStats() {
  std::lock_guard<std::mutex> lock(g_host_stats_mu);
  g_host_stats = EngineHostStats{};
}

std::string RunReport::ToJson() const {
  char flops_buf[64];
  std::snprintf(flops_buf, sizeof(flops_buf), "%.17g", flops);
  char host_buf[64];
  std::snprintf(host_buf, sizeof(host_buf), "%.17g", host_seconds);
  char overlap_buf[64];
  std::snprintf(overlap_buf, sizeof(overlap_buf), "%.17g",
                overlapped_host_seconds);
  std::ostringstream os;
  os << "{\"total_cycles\": " << total_cycles
     << ", \"compute_cycles\": " << compute_cycles
     << ", \"exchange_cycles\": " << exchange_cycles
     << ", \"sync_cycles\": " << sync_cycles
     << ", \"host_seconds\": " << host_buf
     << ", \"overlapped_host_seconds\": " << overlap_buf
     << ", \"flops\": " << flops_buf
     << ", \"bytes_exchanged\": " << bytes_exchanged << "}";
  return os.str();
}

std::size_t Engine::hostWorkers() const {
  return opts_.host_threads != 0 ? opts_.host_threads : ParallelWorkers();
}

Engine::Engine(Internal tag, Executable exe, Options opts)
    : Engine(tag, std::make_shared<const Executable>(std::move(exe)), opts) {}

Engine::Engine(Internal, std::shared_ptr<const Executable> exe, Options opts)
    : Engine(std::move(exe), opts, nullptr) {}

Engine::Engine(Internal, const Engine& source, Options opts)
    : Engine(source.exe_, opts, &source) {}

Engine::Engine(std::shared_ptr<const Executable> exe, Options opts,
               const Engine* share_from)
    : exe_(std::move(exe)),
      graph_([&]() -> const Graph& {
        REPRO_REQUIRE(exe_ != nullptr && exe_->graph != nullptr,
                      "engine constructed from an empty executable");
        return *exe_->graph;
      }()),
      opts_(opts) {
  const auto build_t0 = std::chrono::steady_clock::now();
  stream_ready_s_.assign(exe_->streams.size(), -1.0);
  const std::size_t workers = hostWorkers();
  const auto& vars = graph_.variables();
  if (opts_.execute) {
    std::vector<bool> shared;
    if (share_from != nullptr) {
      REPRO_REQUIRE(share_from->opts_.execute,
                    "executing replica of a timing-only engine");
      shared = ConstantVariables(*exe_);
    }
    storage_.resize(vars.size());
    ParallelForWith(workers, 0, vars.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        storage_[i] = !shared.empty() && shared[i]
                          ? share_from->storage_[i]
                          : std::make_shared<std::vector<float>>(vars[i].numel,
                                                                 0.0f);
      }
    });
  }

  // Registry construction must happen before any parallel region (the
  // builtin registration inside Get() is not thread-safe).
  auto& registry = CodeletRegistry::Get();
  const auto& vertices = graph_.vertices();
  const KernelPlan& plan = exe_->kernel_plan;
  const std::size_t num_cs = exe_->lowered_cs.size();
  // Per-vertex costs were evaluated once at compile time, so construction
  // only resolves each group's codelet, the contiguous per-compute-set group
  // ranges (plan groups are sorted by cs) and, in execute mode, spans.
  REPRO_REQUIRE(plan.vertex_cycles.size() == vertices.size() &&
                    plan.vertex_flops.size() == vertices.size(),
                "kernel plan does not cover the graph");
  group_codelet_.resize(plan.groups.size());
  cs_groups_.assign(num_cs, {0, 0});
  for (std::size_t gi = 0; gi < plan.groups.size(); ++gi) {
    const KernelGroup& g = plan.groups[gi];
    group_codelet_[gi] = &registry.Lookup(plan.codelets[g.codelet].name);
    REPRO_REQUIRE(g.cs < num_cs,
                  "kernel plan group names a missing compute set");
    auto& range = cs_groups_[g.cs];
    if (range.first == range.second) {
      range = {gi, gi + 1};
    } else {
      REPRO_REQUIRE(range.second == gi,
                    "kernel plan groups are not sorted by compute set");
      range.second = gi + 1;
    }
  }
  if (opts_.execute) {
    // Resolve each group's SoA edge table into this engine's private
    // storage, and vertex states into span views, aligned index-for-index
    // with the plan's tables.
    group_spans_.resize(plan.groups.size());
    group_states_.resize(plan.groups.size());
    ParallelForWith(workers, 0, plan.groups.size(),
                    [&](std::size_t lo, std::size_t hi) {
                      for (std::size_t gi = lo; gi < hi; ++gi) {
                        const KernelGroup& g = plan.groups[gi];
                        auto& spans = group_spans_[gi];
                        spans.resize(g.edges.size());
                        for (std::size_t e = 0; e < g.edges.size(); ++e) {
                          const Tensor& t = g.edges[e];
                          spans[e] = {storage_[t.var]->data() + t.offset,
                                      t.numel};
                        }
                        auto& states = group_states_[gi];
                        states.resize(g.vertices.size());
                        for (std::size_t i = 0; i < g.vertices.size(); ++i) {
                          const auto& st = vertices[g.vertices[i]].state;
                          states[i] = {st.data(), st.size()};
                        }
                      }
                    });
  }

  // Per lowered compute set (the executable's table, which includes the
  // fusion pass's merges): bottleneck tile's compute cycles and the flop
  // total. Compute sets are independent, so they shard across threads;
  // within one compute set the walk stays serial in lowered vertex order,
  // which keeps the floating-point flop sum bit-identical for every thread
  // count.
  const IpuArch& arch = graph_.arch();
  cs_compute_cycles_.assign(num_cs, 0.0);
  cs_flops_.assign(num_cs, 0.0);
  cs_bottleneck_tile_.assign(num_cs, 0);
  ParallelForWith(workers, 0, num_cs, [&](std::size_t lo, std::size_t hi) {
    std::map<std::size_t, double> tile_cycles;
    for (std::size_t cs = lo; cs < hi; ++cs) {
      tile_cycles.clear();
      double flops = 0.0;
      for (VertexId vid : exe_->lowered_cs[cs].vertices) {
        tile_cycles[vertices[vid].tile] +=
            plan.vertex_cycles[vid] + arch.vertex_dispatch_cycles;
        flops += plan.vertex_flops[vid];
      }
      double max_cycles = 0.0;
      std::size_t max_tile = 0;
      // Ascending tile order + strict > keeps the lowest tile on ties.
      for (const auto& [tile, cycles] : tile_cycles) {
        if (cycles > max_cycles) {
          max_cycles = cycles;
          max_tile = tile;
        }
      }
      cs_compute_cycles_[cs] = max_cycles;
      cs_flops_[cs] = flops;
      cs_bottleneck_tile_[cs] = max_tile;
    }
  });

  AccumulateBuildStats(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_t0)
          .count(),
      vertices.size());

  if (opts_.tracer != nullptr) {
    const std::string pname =
        opts_.trace_label.empty() ? "ipu" : opts_.trace_label;
    tr_compute_ = &opts_.tracer->track(opts_.trace_pid, obs::kLaneCompute,
                                       pname, "compute");
    tr_exchange_ = &opts_.tracer->track(opts_.trace_pid, obs::kLaneExchange,
                                        pname, "exchange");
    tr_sync_ =
        &opts_.tracer->track(opts_.trace_pid, obs::kLaneSync, pname, "sync");
    tr_host_ =
        &opts_.tracer->track(opts_.trace_pid, obs::kLaneHost, pname, "host");
  }
}

double Engine::simNowS(const RunReport& r) const {
  return trace_base_s_ +
         static_cast<double>(r.total_cycles) / graph_.arch().clock_hz +
         r.host_seconds;
}

double Engine::traceNowUs(const RunReport& r) const {
  return simNowS(r) * 1e6;
}

bool ProgramHasStream(const Program& p) {
  if (p.kind == Program::Kind::kStreamIn ||
      p.kind == Program::Kind::kStreamOut) {
    return true;
  }
  for (const Program& c : p.children) {
    if (ProgramHasStream(c)) return true;
  }
  return false;
}

std::vector<bool> ConstantVariables(const Executable& exe) {
  const Graph& g = *exe.graph;
  std::vector<bool> written(g.variables().size(), false);
  MarkProgramWrites(exe.program, written);
  for (const Vertex& v : g.vertices()) {
    for (const Edge& e : v.edges) {
      if (e.is_output) written[e.view.var] = true;
    }
  }
  written.flip();
  return written;
}

double Engine::cyclesToUs(double cycles) const {
  return cycles / graph_.arch().clock_hz * 1e6;
}

void Engine::checkHostView(const Tensor& t, std::size_t size,
                           const char* op) const {
  REPRO_REQUIRE(opts_.execute, "%s on a timing-only engine", op);
  const auto& vars = graph_.variables();
  REPRO_REQUIRE(t.var < vars.size(), "%s of variable %u, graph has %zu", op,
                t.var, vars.size());
  const std::size_t numel = vars[t.var].numel;
  REPRO_REQUIRE(t.offset <= numel && t.numel <= numel - t.offset,
                "%s of [%zu, +%zu) outside variable %u of %zu elements", op,
                t.offset, t.numel, t.var, numel);
  REPRO_REQUIRE(size == t.numel, "%s size mismatch: %zu vs %zu", op, size,
                t.numel);
}

float* Engine::unsharedData(VarId var) {
  std::shared_ptr<std::vector<float>>& buf = storage_[var];
  if (buf.use_count() > 1) {
    buf = std::make_shared<std::vector<float>>(*buf);
    const KernelPlan& plan = exe_->kernel_plan;
    for (std::size_t gi = 0; gi < plan.groups.size(); ++gi) {
      const std::vector<Tensor>& edges = plan.groups[gi].edges;
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (edges[e].var != var) continue;
        group_spans_[gi][e] = {buf->data() + edges[e].offset, edges[e].numel};
      }
    }
  }
  return buf->data();
}

void Engine::writeTensor(const Tensor& t, std::span<const float> data) {
  checkHostView(t, data.size(), "writeTensor");
  std::memcpy(unsharedData(t.var) + t.offset, data.data(),
              data.size() * sizeof(float));
}

void Engine::readTensor(const Tensor& t, std::span<float> out) const {
  checkHostView(t, out.size(), "readTensor");
  std::memcpy(out.data(), storage_[t.var]->data() + t.offset,
              out.size() * sizeof(float));
}

std::size_t Engine::ownedStorageBytes() const {
  std::size_t bytes = 0;
  for (const auto& buf : storage_) {
    if (buf.use_count() == 1) bytes += buf->size() * sizeof(float);
  }
  return bytes;
}

RunReport Engine::run() {
  const auto run_t0 = std::chrono::steady_clock::now();
  run_vertices_acc_ = 0;
  run_dispatches_acc_ = 0;
  RunReport r;
  runProgram(exe_->program, r);
  if (opts_.tracer != nullptr) opts_.tracer->Count("bsp.runs");
  // Always advanced (not only when tracing): successive runs lay out back
  // to back on the trace timeline, and the host-FIFO stream state keyed to
  // this clock behaves identically whether or not a tracer is attached.
  trace_base_s_ +=
      static_cast<double>(r.total_cycles) / graph_.arch().clock_hz +
      r.host_seconds;
  AccumulateRunStats(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_t0)
          .count(),
      run_vertices_acc_, run_dispatches_acc_);
  return r;
}

void Engine::runProgram(const Program& p, RunReport& r) {
  switch (p.kind) {
    case Program::Kind::kSequence:
      for (const auto& child : p.children) runProgram(child, r);
      break;
    case Program::Kind::kExecute:
      execComputeSet(p.cs, r);
      break;
    case Program::Kind::kCopy:
      execCopy(p, r);
      break;
    case Program::Kind::kCopyBundle:
      execCopyBundle(p, r);
      break;
    case Program::Kind::kRepeat: {
      if (p.repeat_count == 0) break;
      const Program& body = p.children.front();
      if (opts_.fast_repeat) {
        // Cost deltas are data-independent, so one body execution normally
        // suffices and the delta scales. Stream-bearing bodies are the
        // exception: the FIFO recurrence (cold first transfer, then
        // steady-state overlap) converges within two iterations, so run up
        // to three and scale the LAST iteration's delta -- which equals
        // every remaining steady-state iteration exactly.
        const std::size_t warm =
            ProgramHasStream(body)
                ? std::min<std::size_t>(p.repeat_count, 3)
                : 1;
        RunReport before = r;
        for (std::size_t i = 0; i < warm; ++i) {
          before = r;
          runProgram(body, r);
        }
        const auto scale = static_cast<double>(p.repeat_count - warm);
        r.total_cycles += static_cast<std::uint64_t>(
            scale * static_cast<double>(r.total_cycles - before.total_cycles));
        r.compute_cycles += static_cast<std::uint64_t>(
            scale *
            static_cast<double>(r.compute_cycles - before.compute_cycles));
        r.exchange_cycles += static_cast<std::uint64_t>(
            scale *
            static_cast<double>(r.exchange_cycles - before.exchange_cycles));
        r.sync_cycles += static_cast<std::uint64_t>(
            scale * static_cast<double>(r.sync_cycles - before.sync_cycles));
        r.host_seconds += scale * (r.host_seconds - before.host_seconds);
        r.overlapped_host_seconds +=
            scale * (r.overlapped_host_seconds - before.overlapped_host_seconds);
        r.flops += scale * (r.flops - before.flops);
        r.bytes_exchanged += static_cast<std::size_t>(
            scale *
            static_cast<double>(r.bytes_exchanged - before.bytes_exchanged));
      } else {
        for (std::size_t i = 0; i < p.repeat_count; ++i) {
          runProgram(body, r);
        }
      }
      break;
    }
    case Program::Kind::kHostWrite:
      chargeHostTransfer(p.dst.bytes(), "host_write", r);
      break;
    case Program::Kind::kHostRead:
      chargeHostTransfer(p.src.bytes(), "host_read", r);
      break;
    case Program::Kind::kStreamIn:
      execStreamIn(p, r);
      break;
    case Program::Kind::kStreamOut:
      execStreamOut(p, r);
      break;
  }
}

void Engine::execComputeSet(ComputeSetId cs, RunReport& r) {
  const IpuArch& arch = graph_.arch();
  // Exchange phase: gather inputs / scatter previous outputs. The cost is
  // the bottleneck tile's receive bytes -- independent of tile distance,
  // which is the paper's Observation 1.
  const ExchangePlan& plan = exe_->cs_exchange[cs];
  if (plan.total_bytes > 0) {
    const auto cycles = static_cast<std::uint64_t>(
        arch.exchange_sync_cycles +
        static_cast<double>(plan.max_tile_incoming) /
            arch.exchange_bytes_per_cycle);
    if (tr_exchange_ != nullptr) {
      tr_exchange_->Complete(
          exe_->lowered_cs[cs].name, "exchange", traceNowUs(r),
          cyclesToUs(static_cast<double>(cycles)),
          {obs::Arg("cycles", static_cast<std::uint64_t>(cycles)),
           obs::Arg("total_bytes", plan.total_bytes),
           obs::Arg("max_tile_incoming", plan.max_tile_incoming),
           obs::Arg("bottleneck_tile", plan.bottleneck_tile)});
      opts_.tracer->Count("bsp.exchange_bytes", plan.total_bytes);
    }
    r.exchange_cycles += cycles;
    r.total_cycles += cycles;
    r.bytes_exchanged += plan.total_bytes;
  }
  // Compute phase: tiles run independently; superstep ends when the slowest
  // tile finishes. All accounting was precomputed serially at construction.
  const auto sync = static_cast<std::uint64_t>(arch.compute_sync_cycles);
  const auto compute = static_cast<std::uint64_t>(cs_compute_cycles_[cs]);
  const auto [gb, ge] = cs_groups_[cs];
  if (tr_sync_ != nullptr) {
    const double t = traceNowUs(r);
    const double sync_us = cyclesToUs(static_cast<double>(sync));
    // One host dispatch per plan group of this compute set.
    const double per_dispatch =
        gb == ge ? 0.0
                 : static_cast<double>(exe_->lowered_cs[cs].vertices.size()) /
                       static_cast<double>(ge - gb);
    tr_sync_->Complete("sync", "sync", t, sync_us,
                       {obs::Arg("cycles", static_cast<std::uint64_t>(sync))});
    tr_compute_->Complete(
        exe_->lowered_cs[cs].name, "compute", t + sync_us,
        cyclesToUs(static_cast<double>(compute)),
        {obs::Arg("cycles", static_cast<std::uint64_t>(compute)),
         obs::Arg("flops", cs_flops_[cs]),
         obs::Arg("bottleneck_tile", cs_bottleneck_tile_[cs]),
         obs::Arg("vertices_per_dispatch", per_dispatch)});
    opts_.tracer->Count("bsp.supersteps");
  }
  r.sync_cycles += sync;
  r.compute_cycles += compute;
  r.total_cycles += sync + compute;
  r.flops += cs_flops_[cs];

  if (opts_.execute) {
    // One compute call per (tile, codelet) group, iterating the plan's SoA
    // tables. Groups write disjoint regions (their vertices do, validated
    // at compile time), so they shard across host threads; within a group
    // the kernel runs vertices in lowered order, so results are bitwise
    // identical for every thread count.
    const KernelPlan& plan = exe_->kernel_plan;
    ParallelForWith(hostWorkers(), gb, ge,
                    [&](std::size_t lo, std::size_t hi) {
                      for (std::size_t gi = lo; gi < hi; ++gi) {
                        const KernelGroup& g = plan.groups[gi];
                        group_codelet_[gi]->compute(ResolvedArgs(
                            &graph_.arch(), &plan.codelets[g.codelet], &g,
                            group_spans_[gi].data(),
                            group_states_[gi].data()));
                      }
                    });
    run_vertices_acc_ += exe_->lowered_cs[cs].vertices.size();
    run_dispatches_acc_ += ge - gb;
  }
}

void Engine::walkCopyTraffic(const Program& p,
                             std::map<std::size_t, std::size_t>& incoming,
                             std::size_t& total) const {
  // Walk src and dst mappings in lockstep to find cross-tile traffic.
  struct Range {
    std::size_t tile;
    std::size_t begin;  // offset within the view
    std::size_t len;
  };
  std::vector<Range> src_ranges, dst_ranges;
  ForEachMappedRange(graph_, p.src,
                     [&](std::size_t tile, std::size_t begin, std::size_t len) {
                       src_ranges.push_back({tile, begin - p.src.offset, len});
                     });
  ForEachMappedRange(graph_, p.dst,
                     [&](std::size_t tile, std::size_t begin, std::size_t len) {
                       dst_ranges.push_back({tile, begin - p.dst.offset, len});
                     });
  std::size_t si = 0;
  for (const Range& d : dst_ranges) {
    std::size_t cursor = d.begin;
    const std::size_t end = d.begin + d.len;
    while (cursor < end) {
      while (si < src_ranges.size() &&
             src_ranges[si].begin + src_ranges[si].len <= cursor) {
        ++si;
      }
      REPRO_REQUIRE(si < src_ranges.size(), "copy range walk out of sync");
      const Range& s = src_ranges[si];
      const std::size_t stop = std::min(end, s.begin + s.len);
      if (s.tile != d.tile) {
        const std::size_t bytes = (stop - cursor) * sizeof(float);
        incoming[d.tile] += bytes;
        total += bytes;
      }
      cursor = stop;
    }
  }
}

void Engine::moveCopyData(const Program& p) {
  // A copy's destination is never a constant, so its buffer is this
  // engine's alone.
  const float* src = storage_[p.src.var]->data() + p.src.offset;
  float* dst = storage_[p.dst.var]->data() + p.dst.offset;
  const std::size_t n = p.src.numel;
  if (p.src.var == p.dst.var &&
      p.src.offset < p.dst.offset + n && p.dst.offset < p.src.offset + n) {
    // Overlapping same-variable copy: shards would clobber each other's
    // source bytes, so this (rare) case stays a serial memmove.
    std::memmove(dst, src, n * sizeof(float));
    return;
  }
  ParallelForWith(
      hostWorkers(), 0, n,
      [&](std::size_t lo, std::size_t hi) {
        std::memcpy(dst + lo, src + lo, (hi - lo) * sizeof(float));
      },
      /*min_grain=*/8192);
}

namespace {

// Bottleneck summary of one exchange phase: the busiest receiving tile sets
// the cycle cost (tile distance is irrelevant -- the paper's Observation 1).
struct ExchangeCost {
  std::uint64_t cycles = 0;
  std::size_t max_in = 0;
  std::size_t bottleneck_tile = 0;
};

ExchangeCost ExchangeCostOf(const IpuArch& arch,
                            const std::map<std::size_t, std::size_t>& incoming) {
  ExchangeCost c;
  // Map iteration is ascending by tile; strict > keeps the lowest tile on
  // ties, matching the exchange-plan pass.
  for (const auto& [tile, bytes] : incoming) {
    if (bytes > c.max_in) {
      c.max_in = bytes;
      c.bottleneck_tile = tile;
    }
  }
  c.cycles = static_cast<std::uint64_t>(
      arch.exchange_sync_cycles +
      static_cast<double>(c.max_in) / arch.exchange_bytes_per_cycle);
  return c;
}

}  // namespace

void Engine::execCopy(const Program& p, RunReport& r) {
  std::map<std::size_t, std::size_t> incoming;
  std::size_t total = 0;
  walkCopyTraffic(p, incoming, total);
  if (total > 0) {
    const ExchangeCost c = ExchangeCostOf(graph_.arch(), incoming);
    if (tr_exchange_ != nullptr) {
      tr_exchange_->Complete("copy", "exchange", traceNowUs(r),
                             cyclesToUs(static_cast<double>(c.cycles)),
                             {obs::Arg("cycles", c.cycles),
                              obs::Arg("total_bytes", total),
                              obs::Arg("max_tile_incoming", c.max_in),
                              obs::Arg("bottleneck_tile", c.bottleneck_tile)});
      opts_.tracer->Count("bsp.exchange_bytes", total);
    }
    r.exchange_cycles += c.cycles;
    r.total_cycles += c.cycles;
    r.bytes_exchanged += total;
  }
  if (opts_.execute) moveCopyData(p);
}

void Engine::execCopyBundle(const Program& p, RunReport& r) {
  // All child copies share one exchange phase: a single sync, bottlenecked
  // by the busiest receiving tile across the whole bundle. The per-child
  // traffic walks are read-only, so they shard across threads into local
  // maps that merge serially in child order (deterministic accounting).
  const std::size_t n = p.children.size();
  std::vector<std::map<std::size_t, std::size_t>> child_incoming(n);
  std::vector<std::size_t> child_total(n, 0);
  ParallelForWith(hostWorkers(), 0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      walkCopyTraffic(p.children[i], child_incoming[i], child_total[i]);
    }
  });
  std::map<std::size_t, std::size_t> incoming;
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [tile, bytes] : child_incoming[i]) {
      incoming[tile] += bytes;
    }
    total += child_total[i];
  }
  if (total > 0) {
    const ExchangeCost c = ExchangeCostOf(graph_.arch(), incoming);
    if (tr_exchange_ != nullptr) {
      tr_exchange_->Complete("copy_bundle", "exchange", traceNowUs(r),
                             cyclesToUs(static_cast<double>(c.cycles)),
                             {obs::Arg("cycles", c.cycles),
                              obs::Arg("total_bytes", total),
                              obs::Arg("max_tile_incoming", c.max_in),
                              obs::Arg("bottleneck_tile", c.bottleneck_tile)});
      opts_.tracer->Count("bsp.exchange_bytes", total);
    }
    r.exchange_cycles += c.cycles;
    r.total_cycles += c.cycles;
    r.bytes_exchanged += total;
  }
  if (opts_.execute) {
    // Bundled copies may share destinations with later children; moving
    // them in child order preserves the sequential semantics while each
    // child's movement still shards internally.
    for (const Program& c : p.children) moveCopyData(c);
  }
}

void Engine::chargeHostTransfer(std::size_t bytes, const char* name,
                                RunReport& r) {
  const IpuArch& arch = graph_.arch();
  const double seconds =
      static_cast<double>(bytes) / arch.host_bandwidth_bytes_per_sec;
  const auto sync = static_cast<std::uint64_t>(arch.exchange_sync_cycles);
  if (tr_host_ != nullptr) {
    const double t = traceNowUs(r);
    tr_host_->Complete(name, "host", t, seconds * 1e6,
                       {obs::Arg("bytes", bytes)});
    tr_sync_->Complete("host_sync", "sync", t,
                       cyclesToUs(static_cast<double>(sync)),
                       {obs::Arg("cycles", static_cast<std::uint64_t>(sync))});
    opts_.tracer->Count("bsp.host_bytes", bytes);
  }
  r.host_seconds += seconds;
  r.sync_cycles += sync;
  r.total_cycles += sync;
}

void Engine::execStreamIn(const Program& p, RunReport& r) {
  const IpuArch& arch = graph_.arch();
  std::size_t idx = exe_->streams.size();
  for (std::size_t i = 0; i < exe_->streams.size(); ++i) {
    const HostStream& hs = exe_->streams[i];
    if (hs.dir == HostStream::Dir::kIn && hs.tensor.var == p.dst.var &&
        hs.tensor.offset == p.dst.offset && hs.tensor.numel == p.dst.numel) {
      idx = i;
      break;
    }
  }
  REPRO_REQUIRE(idx < exe_->streams.size(),
                "StreamIn without a host stream descriptor");
  const double d =
      static_cast<double>(p.dst.bytes()) / arch.host_bandwidth_bytes_per_sec;
  const double now = simNowS(r);
  double start;
  double ready;
  if (stream_ready_s_[idx] < 0.0) {
    // Cold: nothing prefetched yet, so the transfer starts when the link
    // frees and the device stalls for its full duration.
    start = std::max(now, in_link_free_s_);
    ready = start + d;
  } else {
    // Warm: the previous consume kicked off this transfer into the spare
    // buffer; whatever finished before "now" was hidden behind compute.
    ready = stream_ready_s_[idx];
    start = ready - d;
  }
  in_link_free_s_ = std::max(in_link_free_s_, ready);
  const double stall = std::max(0.0, ready - now);
  const double overlapped = std::max(0.0, d - stall);
  const auto sync = static_cast<std::uint64_t>(arch.exchange_sync_cycles);
  if (tr_host_ != nullptr) {
    tr_host_->Complete("stream_in", "host", start * 1e6, d * 1e6,
                       {obs::Arg("bytes", p.dst.bytes()),
                        obs::Arg("stall_s", stall),
                        obs::Arg("overlapped_s", overlapped)});
    tr_sync_->Complete("host_sync", "sync", traceNowUs(r),
                       cyclesToUs(static_cast<double>(sync)),
                       {obs::Arg("cycles", sync)});
    opts_.tracer->Count("bsp.host_bytes", p.dst.bytes());
  }
  r.host_seconds += stall;
  r.overlapped_host_seconds += overlapped;
  r.sync_cycles += sync;
  r.total_cycles += sync;
  // Prefetch the next batch into the buffer just vacated: it can start as
  // soon as the device owns this one and the link is free.
  const double next_start = std::max(simNowS(r), in_link_free_s_);
  stream_ready_s_[idx] = next_start + d;
  in_link_free_s_ = stream_ready_s_[idx];
}

void Engine::execStreamOut(const Program& p, RunReport& r) {
  const IpuArch& arch = graph_.arch();
  const double d =
      static_cast<double>(p.src.bytes()) / arch.host_bandwidth_bytes_per_sec;
  const double now = simNowS(r);
  // One spare output buffer: the device hands the result off instantly
  // unless the previous drain still occupies the link, and the drain itself
  // proceeds behind subsequent compute.
  const double stall = std::max(0.0, out_link_free_s_ - now);
  const double start = now + stall;
  out_link_free_s_ = start + d;
  const double overlapped = std::max(0.0, d - stall);
  const auto sync = static_cast<std::uint64_t>(arch.exchange_sync_cycles);
  if (tr_host_ != nullptr) {
    tr_host_->Complete("stream_out", "host", start * 1e6, d * 1e6,
                       {obs::Arg("bytes", p.src.bytes()),
                        obs::Arg("stall_s", stall),
                        obs::Arg("overlapped_s", overlapped)});
    tr_sync_->Complete("host_sync", "sync", traceNowUs(r),
                       cyclesToUs(static_cast<double>(sync)),
                       {obs::Arg("cycles", sync)});
    opts_.tracer->Count("bsp.host_bytes", p.src.bytes());
  }
  r.host_seconds += stall;
  r.overlapped_host_seconds += overlapped;
  r.sync_cycles += sync;
  r.total_cycles += sync;
}

}  // namespace repro::ipu
