#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>
#include <set>
#include <utility>

#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace repro::serve {
namespace {

// 56 bytes: the heap moves events on every push and pop.
struct Event {
  enum Kind : std::uint32_t { kArrival, kSlotArrival, kDeadline, kDone, kTick };
  double time = 0.0;
  std::uint64_t seq = 0;  // creation order: the deterministic tie-break
  // kSlotArrival: the request. kArrival: `count` requests with consecutive
  // ids from req.id, all arriving at `time` -- the clients one answered
  // closed-loop batch re-issues. Their one seq stands for the consecutive
  // seqs one event per request would take: nothing can come between them.
  Request req;
  std::uint32_t slot = 0;     // kSlotArrival / kDeadline / kDone
  std::uint32_t replica = 0;  // kDone
  std::uint32_t count = 0;    // kArrival
  Kind kind = kArrival;
};

static_assert(sizeof(Event) <= 56);

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

// One run of the loop: single-threaded over virtual time. The only
// multithreaded phase is the numerics replay at the end, which cannot touch
// any recorded time.
//
// The load's up-front arrivals (open-loop Poisson times, closed-loop
// initial clients) never enter the heap: they wait in time order in a
// vector beside it, and the loop merges the two by (time, seq). The heap
// holds only what the run creates as it goes -- hops, deadlines,
// completions, ticks and one event per re-issued closed-loop batch -- so it
// stays as small as the work in flight.
class Simulation {
 public:
  // Request i of the load arrives at arrivals[i] (non-decreasing).
  Simulation(const EventLoop& loop, FrontDoor& door, ServeMetrics& metrics,
             std::size_t total_requests, std::vector<double> arrivals,
             const Matrix* inputs)
      : loop_(loop),
        door_(door),
        metrics_(metrics),
        inputs_(inputs != nullptr && inputs->rows() > 0 ? inputs : nullptr),
        total_(total_requests),
        arrivals_(std::move(arrivals)) {
    REPRO_REQUIRE(!loop.slots.empty(), "event loop needs at least one slot");
    REPRO_REQUIRE(loop.queue_capacity > 0, "queue capacity must be positive");
    REPRO_REQUIRE(loop.tick_interval_s > 0.0, "tick interval must be positive");
    replay_ = inputs_ != nullptr;
    for (std::size_t s = 0; s < loop.slots.size(); ++s) {
      const ExecutionBackend* backend = loop.slots[s].backend;
      REPRO_REQUIRE(backend != nullptr && backend->replicas() > 0,
                    "slot %zu has no replicas to dispatch to", s);
      slots_.emplace_back(*backend, loop.batch);
      if (inputs_ == nullptr) continue;
      // The replay copies input rows into each slot's batches and its
      // logits into one matrix: both widths must agree before any copy.
      const nn::ForwardSpec& spec = backend->spec();
      REPRO_REQUIRE(inputs_->cols() == spec.input,
                    "replay inputs have %zu features but slot %zu's model "
                    "takes %zu",
                    inputs_->cols(), s, spec.input);
      REPRO_REQUIRE(spec.classes == loop.slots[0].backend->spec().classes,
                    "slots disagree on the logits width: slot %zu has %zu "
                    "classes, slot 0 has %zu",
                    s, spec.classes, loop.slots[0].backend->spec().classes);
      replay_ = replay_ && backend->canExecute();
    }
    if (std::isfinite(loop.tick_interval_s)) {
      Push(loop.tick_interval_s, Event::kTick);
    }
    // The seqs one heap event per arrival would have taken.
    arrival_seq0_ = seq_;
    seq_ += arrivals_.size();
    issued_ = arrivals_.size();
  }

  Matrix Run(bool closed_loop, double think_s) {
    closed_loop_ = closed_loop;
    think_s_ = think_s;
    for (;;) {
      if (NextIsUpFrontArrival()) {
        const double now = arrivals_[next_arrival_];
        Arrive(next_arrival_++, 1, now);
        continue;
      }
      if (events_.empty()) break;
      const Event e = events_.top();
      events_.pop();
      const double now = e.time;
      switch (e.kind) {
        case Event::kArrival:
          Arrive(e.req.id, e.count, now);
          break;
        case Event::kSlotArrival:
          Admit(e.slot, e.req, now);
          break;
        case Event::kDeadline:
          --slots_[e.slot].pending_deadlines;
          Pump(e.slot, now);
          break;
        case Event::kDone:
          Complete(e.slot, e.replica, now);
          Pump(e.slot, now);
          break;
        case Event::kTick:
          if (answered_ < issued_ || issued_ < total_) {
            door_.Tick(now);
            Push(now + loop_.tick_interval_s, Event::kTick);
          }
          break;
      }
    }
    metrics_.Finalize(last_completion_s_);
    return Replay();
  }

 private:
  // One replica's pipeline: the absolute sim times each phase resource
  // frees, plus the in-flight batches in dispatch (= completion) order and,
  // for the replay, the answered ones.
  struct Replica {
    double in_free = 0.0;
    double comp_free = 0.0;
    double out_free = 0.0;
    std::deque<BatchRun> fifo;
    std::vector<std::vector<Request>> answered;
  };

  struct SlotState {
    SlotState(const ExecutionBackend& backend, const BatchPolicy& batch)
        : batcher(batch),
          profile(backend.streamProfile()),
          depth(profile.enabled ? 2 : 1),
          replicas(backend.replicas()) {
      for (std::size_t r = 0; r < replicas.size(); ++r) free.emplace(0, r);
    }

    MicroBatcher batcher;  // every admitted, undispatched request
    const StreamProfile profile;
    const std::size_t depth;  // in-flight batches per replica (2 = streaming)
    std::vector<Replica> replicas;
    // Replicas with pipeline headroom as (batches in flight, replica id):
    // the first is dispatch's pick, the least loaded with the lowest id.
    std::set<std::pair<std::size_t, std::size_t>> free;
    std::size_t pending_deadlines = 0;
  };

  void Push(double t, Event::Kind kind, std::size_t slot = 0,
            std::size_t replica = 0, const Request& req = Request{},
            std::size_t count = 0) {
    events_.push(Event{t, seq_++, req, static_cast<std::uint32_t>(slot),
                       static_cast<std::uint32_t>(replica),
                       static_cast<std::uint32_t>(count), kind});
  }

  // Whether the next event in (time, seq) order is the next up-front
  // arrival rather than the heap's top.
  bool NextIsUpFrontArrival() const {
    if (next_arrival_ == arrivals_.size()) return false;
    if (events_.empty()) return true;
    const Event& top = events_.top();
    const double t = arrivals_[next_arrival_];
    return t < top.time ||
           (t == top.time && arrival_seq0_ + next_arrival_ < top.seq);
  }

  // Requests first .. first + count - 1 arrive at the front door at `now`,
  // in id order, each routed and then admitted or sent over its hop.
  void Arrive(std::uint64_t first, std::size_t count, double now) {
    for (std::uint64_t id = first; id < first + count; ++id) {
      Request req;
      req.id = id;
      req.arrival_s = now;
      req.row = inputs_ != nullptr
                    ? static_cast<std::uint32_t>(id % inputs_->rows())
                    : 0;
      const std::size_t s = door_.Route(req, now);
      REPRO_REQUIRE(s < slots_.size(), "front door chose slot %zu of %zu", s,
                    slots_.size());
      const double hop = loop_.slots[s].request_hop_s;
      if (hop > 0.0) {
        Push(now + hop, Event::kSlotArrival, s, 0, req);
      } else {
        Admit(s, req, now);
      }
    }
  }

  // Admission control: up to queue_capacity requests may wait behind the
  // forming batch; past that the slot sheds instead of growing.
  void Admit(std::size_t s, const Request& req, double now) {
    MicroBatcher& batcher = slots_[s].batcher;
    if (batcher.pending() < loop_.batch.max_batch + loop_.queue_capacity) {
      batcher.Add(req);
      metrics_.RecordAdmitted();
      door_.Admitted(s, req, now);
    } else {
      metrics_.RecordRejected();
      ++answered_;
      door_.Rejected(s, req, now);
    }
    Pump(s, now);
  }

  // Dispatches the slot's ready batches to free replicas until none is
  // ready or no replica has room, then arms the flush deadline.
  //
  // Dispatch pipelines three phases per replica -- input link, compute,
  // output link -- each a monotonic resource. On a streaming backend a
  // replica admits a second batch while the first computes (depth 2), so
  // the admitted batch's input transfer runs behind the in-flight compute.
  // A copy backend has in_s = out_s = 0 and depth 1, which makes these
  // formulas reproduce the unpipelined event times exactly.
  void Pump(std::size_t s, double now) {
    SlotState& st = slots_[s];
    const StreamProfile& p = st.profile;
    while (!st.free.empty() && st.batcher.Ready(now)) {
      BatchRun run;
      run.requests = st.batcher.Pop();
      const auto [in_flight, r] = *st.free.begin();
      st.free.erase(st.free.begin());
      if (in_flight + 1 < st.depth) st.free.emplace(in_flight + 1, r);
      Replica& rep = st.replicas[r];
      run.slot = s;
      run.replica = r;
      run.id = dispatched_++;
      run.dispatch_s = now;
      run.in_start_s = std::max(now, rep.in_free);
      const double in_done = run.in_start_s + p.in_s;
      run.comp_start_s = std::max(in_done, rep.comp_free);
      const double comp_done = run.comp_start_s + p.compute_s;
      run.out_start_s = std::max(comp_done, rep.out_free);
      const double out_done = run.out_start_s + p.out_s;
      run.overlapped_s =
          std::max(0.0, std::min(in_done, rep.comp_free) - run.in_start_s);
      rep.in_free = in_done;
      rep.comp_free = comp_done;
      rep.out_free = out_done;
      metrics_.RecordBatchFor(loop_.slots[s].metrics_row, run.requests.size(),
                              now);
      metrics_.RecordOverlap(run.overlapped_s);
      door_.Dispatched(run);
      rep.fifo.push_back(std::move(run));
      Push(out_done, Event::kDone, s, r);
    }
    // A partial batch left waiting needs a future wake-up at its flush
    // deadline -- but only when a replica is free (otherwise the next kDone
    // re-evaluates) and no earlier deadline event is already pending (front
    // arrivals are FIFO, so pending deadline times never exceed the current
    // one).
    if (st.batcher.empty() || st.free.empty() || st.pending_deadlines > 0) {
      return;
    }
    const double d = st.batcher.Deadline();
    if (!std::isfinite(d)) return;
    Push(std::max(d, now), Event::kDeadline, s);
    ++st.pending_deadlines;
  }

  // Per-replica completions are FIFO: out_free advances monotonically at
  // dispatch, so the front of the pipeline is always the batch this event
  // announces.
  void Complete(std::size_t s, std::size_t r, double now) {
    SlotState& st = slots_[s];
    Replica& rep = st.replicas[r];
    // One batch fewer in flight: the replica has headroom under a new key.
    const std::size_t in_flight = rep.fifo.size();
    if (in_flight < st.depth) st.free.erase({in_flight, r});
    st.free.emplace(in_flight - 1, r);
    BatchRun done = std::move(rep.fifo.front());
    rep.fifo.pop_front();
    const double done_s = now + loop_.slots[s].response_hop_s;
    last_completion_s_ = std::max(last_completion_s_, done_s);
    for (const Request& req : done.requests) {
      metrics_.RecordCompletion(done_s - req.arrival_s,
                                done.dispatch_s - req.arrival_s);
    }
    // Each answered client re-issues after its think time, while requests
    // remain: one event for the whole batch's worth.
    if (closed_loop_ && issued_ < total_) {
      const std::uint64_t count =
          std::min<std::uint64_t>(done.requests.size(), total_ - issued_);
      Request first;
      first.id = issued_;
      Push(done_s + think_s_, Event::kArrival, 0, 0, first, count);
      issued_ += count;
    }
    answered_ += done.requests.size();
    door_.Completed(done, now, done_s);
    if (replay_) rep.answered.push_back(std::move(done.requests));
  }

  // Replays each replica's answered batches through its engine to produce
  // logits: parallel across every (slot, replica) pair, sequential within
  // one. Batch composition is fixed by the loop, so results are independent
  // of host_threads.
  Matrix Replay() {
    if (!replay_) return Matrix();
    Matrix logits(total_, loop_.slots[0].backend->spec().classes);
    std::vector<std::pair<std::size_t, std::size_t>> units;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      for (std::size_t r = 0; r < slots_[s].replicas.size(); ++r) {
        units.emplace_back(s, r);
      }
    }
    ParallelForWith(
        loop_.host_threads, 0, units.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t u = begin; u < end; ++u) {
            const auto [s, r] = units[u];
            for (const auto& batch : slots_[s].replicas[r].answered) {
              Matrix in(batch.size(), inputs_->cols());
              for (std::size_t i = 0; i < batch.size(); ++i) {
                auto src = inputs_->row(batch[i].row);
                std::copy(src.begin(), src.end(), in.row(i).begin());
              }
              const Matrix out = loop_.slots[s].backend->ExecuteBatch(r, in);
              for (std::size_t i = 0; i < batch.size(); ++i) {
                auto dst = logits.row(batch[i].id);
                std::copy(out.row(i).begin(), out.row(i).end(), dst.begin());
              }
            }
          }
        },
        /*min_grain=*/1);
    return logits;
  }

  const EventLoop& loop_;
  FrontDoor& door_;
  ServeMetrics& metrics_;
  const Matrix* inputs_;  // null = no features (or a 0-row matrix)
  const std::size_t total_;
  bool replay_ = false;
  bool closed_loop_ = false;
  double think_s_ = 0.0;

  std::vector<SlotState> slots_;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  // Up-front arrivals: request i arrives at arrivals_[i] with seq
  // arrival_seq0_ + i; the ones before next_arrival_ have arrived.
  const std::vector<double> arrivals_;
  std::size_t next_arrival_ = 0;
  std::uint64_t arrival_seq0_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t answered_ = 0;  // completed + rejected
  std::uint64_t dispatched_ = 0;
  double last_completion_s_ = 0.0;
};

// The single-chip front door: every request goes to slot 0. Its trace
// vocabulary is one ingress lane (admissions, queue waits, batch
// formation) plus a track per replica (device runs, per-request device
// spans).
class DirectDoor final : public FrontDoor {
 public:
  DirectDoor(const ServerConfig& cfg, const ExecutionBackend& backend,
             ServeMetrics& metrics)
      : tracer_(cfg.tracer), profile_(backend.streamProfile()) {
    if (tracer_ == nullptr) return;
    const std::string pname =
        cfg.trace_label.empty() ? "serve" : cfg.trace_label;
    ingress_ = &tracer_->track(cfg.trace_pid, 0, pname, "ingress");
    replica_tracks_.reserve(backend.replicas());
    for (std::size_t r = 0; r < backend.replicas(); ++r) {
      replica_tracks_.push_back(&tracer_->track(
          cfg.trace_pid, 1 + r, pname, "replica " + std::to_string(r)));
    }
    metrics.AttachTracer(tracer_, ingress_);
  }

  std::size_t Route(const Request&, double) override { return 0; }

  void Admitted(std::size_t, const Request& req, double now) override {
    if (ingress_ == nullptr) return;
    // The request lifecycle span opens at admission and closes at
    // completion (async-nestable: queued requests overlap freely).
    ingress_->AsyncBegin("request", "request", now * 1e6, req.id);
    tracer_->Count("serve.admitted");
  }

  void Rejected(std::size_t, const Request& req, double now) override {
    if (ingress_ == nullptr) return;
    ingress_->Instant("reject", "serve", now * 1e6,
                      {obs::Arg("request", req.id)});
    tracer_->Count("serve.rejected");
  }

  void Dispatched(const BatchRun& run) override {
    if (ingress_ == nullptr) return;
    TraceDispatch(*tracer_, *ingress_, *replica_tracks_[run.replica],
                  profile_, run, "serve", "serve.batches");
  }

  void Completed(const BatchRun& run, double now, double done_s) override {
    if (ingress_ == nullptr) return;
    TraceAnswers(*tracer_, *ingress_, *replica_tracks_[run.replica],
                 "serve.completed", run, now, done_s);
  }

 private:
  obs::Tracer* tracer_;
  const StreamProfile& profile_;
  obs::TraceTrack* ingress_ = nullptr;  // null = tracing off
  std::vector<obs::TraceTrack*> replica_tracks_;
};

}  // namespace

void TraceDispatch(obs::Tracer& tracer, obs::TraceTrack& lane,
                   obs::TraceTrack& device, const StreamProfile& profile,
                   const BatchRun& run, const char* cat, const char* counter,
                   const std::vector<obs::TraceArg>& lane_args,
                   const std::vector<obs::TraceArg>& device_args) {
  auto args = [](std::vector<obs::TraceArg> own,
                 const std::vector<obs::TraceArg>& extra) {
    own.insert(own.end(), extra.begin(), extra.end());
    return own;
  };
  const std::size_t occupancy = run.requests.size();
  lane.AsyncBegin("batch_form", "batch", run.requests.front().arrival_s * 1e6,
                  run.id, args({obs::Arg("occupancy", occupancy)}, lane_args));
  lane.AsyncEnd("batch_form", "batch", run.dispatch_s * 1e6, run.id);
  if (profile.enabled) {
    device.Complete("stream_in", "host", run.in_start_s * 1e6,
                    profile.in_s * 1e6,
                    args({obs::Arg("batch", run.id),
                          obs::Arg("overlapped_s", run.overlapped_s)},
                         device_args));
  }
  device.Complete("device_run", cat, run.comp_start_s * 1e6,
                  profile.compute_s * 1e6,
                  args({obs::Arg("batch", run.id),
                        obs::Arg("occupancy", occupancy)},
                       device_args));
  if (profile.enabled) {
    device.Complete("stream_out", "host", run.out_start_s * 1e6,
                    profile.out_s * 1e6,
                    args({obs::Arg("batch", run.id)}, device_args));
  }
  tracer.Count(counter);
}

void TraceAnswers(obs::Tracer& tracer, obs::TraceTrack& lane,
                  obs::TraceTrack& device, const char* counter,
                  const BatchRun& run, double now, double done_s) {
  const double disp_us = run.dispatch_s * 1e6;
  for (const Request& req : run.requests) {
    lane.AsyncBegin("queue", "request", req.arrival_s * 1e6, req.id);
    lane.AsyncEnd("queue", "request", disp_us, req.id);
    device.AsyncBegin("device", "device", disp_us, req.id);
    device.AsyncEnd("device", "device", now * 1e6, req.id,
                    {obs::Arg("latency_s", done_s - req.arrival_s),
                     obs::Arg("queue_delay_s", run.dispatch_s - req.arrival_s)});
    lane.AsyncEnd("request", "request", done_s * 1e6, req.id);
    tracer.Count(counter);
  }
}

Matrix EventLoop::Run(const OpenLoopLoad& load, const Matrix* inputs,
                      FrontDoor& door, ServeMetrics& metrics) const {
  REPRO_REQUIRE(load.qps > 0.0, "open-loop rate must be positive");
  std::vector<double> arrivals(load.requests);
  Rng rng(load.seed);
  double t = 0.0;
  for (double& arrival : arrivals) {
    t += -std::log(1.0 - rng.Uniform()) / load.qps;  // Exp(qps) gaps
    arrival = t;
  }
  Simulation sim(*this, door, metrics, load.requests, std::move(arrivals),
                 inputs);
  return sim.Run(/*closed_loop=*/false, /*think_s=*/0.0);
}

Matrix EventLoop::Run(const ClosedLoopLoad& load, const Matrix* inputs,
                      FrontDoor& door, ServeMetrics& metrics) const {
  REPRO_REQUIRE(load.clients > 0, "closed loop needs at least one client");
  REPRO_REQUIRE(load.clients <= queue_capacity,
                "closed-loop clients (%zu) exceed the queue bound (%zu): the "
                "backpressure contract caps outstanding work at the queue",
                load.clients, queue_capacity);
  Simulation sim(*this, door, metrics, load.requests,
                 std::vector<double>(std::min(load.clients, load.requests)),
                 inputs);
  return sim.Run(/*closed_loop=*/true, load.think_s);
}

Server::Server(ExecutionBackend& backend, ServerConfig config)
    : backend_(&backend), config_(config) {}

Server::Server(ReplicaPool& pool, ServerConfig config)
    : owned_(std::make_unique<IpuBackend>(pool.plan(), &pool)),
      backend_(owned_.get()),
      config_(config) {}

template <typename Load>
ServeResult Server::Run(const Load& load, const Matrix* inputs) {
  ServeResult res{ServeMetrics(config_.batch.max_batch), Matrix()};
  DirectDoor door(config_, *backend_, res.metrics);
  const EventLoop loop{.slots = {Slot{.backend = backend_}},
                       .batch = config_.batch,
                       .queue_capacity = config_.queue_capacity,
                       .host_threads = config_.host_threads};
  res.logits = loop.Run(load, inputs, door, res.metrics);
  return res;
}

ServeResult Server::RunOpenLoop(const OpenLoopLoad& load,
                                const Matrix* inputs) {
  return Run(load, inputs);
}

ServeResult Server::RunClosedLoop(const ClosedLoopLoad& load,
                                  const Matrix* inputs) {
  return Run(load, inputs);
}

}  // namespace repro::serve
