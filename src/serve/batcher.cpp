#include "serve/batcher.h"

#include <iterator>
#include <limits>
#include <utility>

#include "util/error.h"

namespace repro::serve {

MicroBatcher::MicroBatcher(BatchPolicy policy) : policy_(policy) {
  REPRO_REQUIRE(policy.max_batch > 0, "batch policy needs max_batch >= 1");
  REPRO_REQUIRE(policy.max_delay_s >= 0.0, "negative batching delay");
}

bool MicroBatcher::Ready(double now) const {
  if (pending_.empty()) return false;
  if (pending_.size() >= policy_.max_batch) return true;
  // Compare against the exact double the scheduler's deadline event carries,
  // so Ready(deadline) is true bit-for-bit.
  return now >= Deadline();
}

double MicroBatcher::Deadline() const {
  if (pending_.empty()) return std::numeric_limits<double>::infinity();
  return pending_.front().arrival_s + policy_.max_delay_s;
}

std::vector<Request> MicroBatcher::Pop() {
  const std::size_t count = std::min(pending_.size(), policy_.max_batch);
  REPRO_REQUIRE(count > 0, "Pop on an empty batcher");
  // Move, don't copy: requests grow payloads over time (ids and rows today,
  // feature buffers tomorrow) and this is the per-dispatch hot path.
  const auto end = pending_.begin() + static_cast<long>(count);
  std::vector<Request> batch(std::make_move_iterator(pending_.begin()),
                             std::make_move_iterator(end));
  pending_.erase(pending_.begin(), end);
  return batch;
}

}  // namespace repro::serve
