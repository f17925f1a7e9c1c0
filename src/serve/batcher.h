// Dynamic micro-batcher: turns the request stream into fixed-shape batches.
//
// The serving graph is compiled once at a fixed max_batch (compile-once /
// run-many), so every dispatched batch costs the same simulated service time
// whether it carries 1 request or max_batch. The batcher's job is the
// classic throughput/latency trade: hold arrivals back until either the
// batch is full (no padding wasted) or the oldest request has waited
// max_delay (latency bound). Partial batches pay their padding visibly in
// the occupancy histogram (metrics.h).
//
// The batcher holds a slot's waiting requests in arrival order, the
// forming batch first. It is a passive policy object driven by the event
// loop's virtual clock (serve/server.h), which bounds how many requests may
// wait behind the forming batch (the admission bound).
#pragma once

#include <deque>
#include <utility>
#include <vector>

#include "serve/request.h"

namespace repro::serve {

struct BatchPolicy {
  std::size_t max_batch = 32;   // compiled batch shape
  double max_delay_s = 200e-6;  // oldest-request wait bound (simulated)
};

class MicroBatcher {
 public:
  explicit MicroBatcher(BatchPolicy policy);

  const BatchPolicy& policy() const { return policy_; }

  void Add(Request r) { pending_.push_back(std::move(r)); }

  std::size_t pending() const { return pending_.size(); }
  bool empty() const { return pending_.empty(); }

  // Dispatch decision at simulated time `now`: a full batch is always ready;
  // a partial one only once the oldest request has waited out max_delay.
  bool Ready(double now) const;
  // When the current oldest pending request forces a partial dispatch
  // (+infinity when nothing is pending).
  double Deadline() const;

  // Removes and returns the up-to-max_batch oldest pending requests.
  std::vector<Request> Pop();

 private:
  BatchPolicy policy_;
  std::deque<Request> pending_;
};

}  // namespace repro::serve
