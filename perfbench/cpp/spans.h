// Host-clock spans recorded by the benchmark around calls into the repo's
// layers (nn, linalg, data, ipusim, serve, cluster, obs).
//
// A span is named "<layer>.<what>"; the layer is the name's first component.
// Spans nest by scope: each records its parent and the id of the iteration
// it belongs to. The root span of an iteration is "bench.iteration", so its
// self time is the part of the iteration no layer span covers.
//
// Derived spans carry a duration the library measured itself and exposes
// publicly (PassReport::seconds, EngineHostStatsSnapshot). They are placed
// back to back from the start of their parent and clamped to it, so a
// layer's self time never goes negative.
//
// Disabled recorders hand out inert scopes: the untimed and timed runs call
// the same code, and an untraced run pays one branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double start_s = 0.0;  // seconds since the recorder was created
  double end_s = 0.0;
  int parent = -1;  // index into spans(), -1 for a root
  std::uint64_t iteration = 0;
  bool derived = false;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  // RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Index of this span, or -1 when recording is off.
    int index() const { return index_; }

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  // Starts the root span of iteration `id`; every span opened until the
  // scope closes belongs to it.
  Scope Iteration(std::uint64_t id);
  Scope Open(std::string name) { return Scope(enabled_ ? this : nullptr, std::move(name)); }

  // Adds a derived child of `parent` lasting `seconds` (see above).
  void AddDerived(int parent, std::string name, double seconds);

  const std::vector<Span>& spans() const { return spans_; }

  // Per iteration: summed duration of every span name.
  std::map<std::uint64_t, std::map<std::string, double>> DurationsByName() const;
  // Per iteration: self time (duration minus the union of its children's
  // intervals) summed per layer; the root's self time is layer "bench".
  std::map<std::uint64_t, std::map<std::string, double>> SelfTimeByLayer() const;

  // Chrome trace-event JSON (host clock, microseconds); iteration ids and
  // parent indices ride in each event's args.
  std::string ChromeTraceJson() const;

 private:
  int Begin(std::string name);
  void End(int index);
  double Now() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
  std::uint64_t iteration_ = 0;
};

}  // namespace perfbench
