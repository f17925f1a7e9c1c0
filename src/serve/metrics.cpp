#include "serve/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/trace.h"
#include "util/error.h"

namespace repro::serve {
namespace {

// %.17g round-trips every double exactly, which is what makes the metrics
// JSON a bitwise determinism witness and not just an approximate report.
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Num(std::size_t v) { return std::to_string(v); }

// Zero-based nearest-rank index of percentile p in (0, 100] among n > 0
// values.
std::size_t RankIndex(double p, std::size_t n) {
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::max<std::size_t>(rank, 1) - 1;
}

}  // namespace

ServeMetrics::ServeMetrics(std::size_t max_batch)
    : max_batch_(max_batch), occ_hist_(max_batch + 1, 0) {
  REPRO_REQUIRE(max_batch > 0, "max_batch must be positive");
}

std::size_t ServeMetrics::RegisterBackend(const std::string& label) {
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i].label == label) return i;
  }
  backends_.push_back(BackendSlice{label, 0, 0});
  return backends_.size() - 1;
}

bool ServeMetrics::RecordBatchFor(std::size_t backend, std::size_t occupancy,
                                  double now_s) {
  if (backend == kNoBackend) return RecordBatch(occupancy, now_s);
  REPRO_REQUIRE(backend < backends_.size(),
                "backend index %zu not registered (%zu known)", backend,
                backends_.size());
  if (!RecordBatch(occupancy, now_s)) return false;
  ++backends_[backend].batches;
  backends_[backend].occupied_slots += occupancy;
  return true;
}

bool ServeMetrics::RecordBatch(std::size_t occupancy, double now_s) {
  if (occupancy < 1 || occupancy > max_batch_) {
    // A malformed batch is a server bug worth seeing, not worth dying for:
    // abort()ing the serving loop turns one bad dispatch into a total
    // outage. Count it, emit a traced error event, drop the batch from the
    // occupancy accounting.
    ++invariant_violations_;
    if (track_ != nullptr) {
      track_->Instant("invariant_violation", "error", now_s * 1e6,
                      {obs::Arg("occupancy", occupancy),
                       obs::Arg("max_batch", max_batch_)});
    }
    if (tracer_ != nullptr) tracer_->Count("serve.invariant_violations");
    return false;
  }
  ++batches_;
  occupied_slots_ += occupancy;
  ++occ_hist_[occupancy];
  return true;
}

void ServeMetrics::RecordCompletion(double latency_s, double queue_delay_s) {
  latencies_.push_back(latency_s);
  latency_sum_s_ += latency_s;
  latency_max_s_ = std::max(latency_max_s_, latency_s);
  queue_delay_sum_s_ += queue_delay_s;
}

void ServeMetrics::Finalize(double horizon_s) { horizon_s_ = horizon_s; }

double ServeMetrics::qps() const {
  return horizon_s_ > 0.0 ? static_cast<double>(completed()) / horizon_s_
                          : 0.0;
}

double ServeMetrics::LatencyPercentile(double p) const {
  if (latencies_.empty()) return 0.0;
  REPRO_REQUIRE(p > 0.0 && p <= 100.0, "percentile %g outside (0, 100]", p);
  std::vector<double> values = latencies_;
  const auto nth = values.begin() + RankIndex(p, values.size());
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double ServeMetrics::meanLatency() const {
  return latencies_.empty()
             ? 0.0
             : latency_sum_s_ / static_cast<double>(latencies_.size());
}

double ServeMetrics::maxLatency() const { return latency_max_s_; }

double ServeMetrics::meanQueueDelay() const {
  return latencies_.empty()
             ? 0.0
             : queue_delay_sum_s_ / static_cast<double>(latencies_.size());
}

double ServeMetrics::meanOccupancy() const {
  return batches_ == 0 ? 0.0
                       : static_cast<double>(occupied_slots_) /
                             static_cast<double>(batches_);
}

double ServeMetrics::paddingFraction() const {
  return batches_ == 0 ? 0.0
                       : 1.0 - static_cast<double>(occupied_slots_) /
                                   static_cast<double>(batches_ * max_batch_);
}

std::string ServeMetrics::ToJson() const {
  std::string s = "{";
  auto field = [&s](const char* key, const std::string& value, bool first =
                                                                   false) {
    if (!first) s += ", ";
    s += '"';
    s += key;
    s += "\": ";
    s += value;
  };
  // One copy serves all three percentiles (LatencyPercentile copies per
  // call), selected from the top rank down: after the p99 selection every
  // value below it is no larger, so p95 and then p50 select within that
  // shrinking prefix. Selection returns exactly the sorted copy's value at
  // each rank, so the bytes match a full sort's.
  constexpr double kPercentiles[3] = {50.0, 95.0, 99.0};
  double pct[3] = {0.0, 0.0, 0.0};
  std::vector<double> values = latencies_;
  auto end = values.end();
  for (int i = 2; i >= 0 && !values.empty(); --i) {
    const auto nth = values.begin() + RankIndex(kPercentiles[i], values.size());
    std::nth_element(values.begin(), nth, end);
    pct[i] = *nth;
    end = nth;
  }
  field("max_batch", Num(max_batch_), true);
  field("admitted", Num(admitted_));
  field("rejected", Num(rejected_));
  field("invariant_violations", Num(invariant_violations_));
  field("completed", Num(completed()));
  field("batches", Num(batches_));
  field("horizon_s", Num(horizon_s_));
  field("qps", Num(qps()));
  field("latency_p50_us", Num(pct[0] * 1e6));
  field("latency_p95_us", Num(pct[1] * 1e6));
  field("latency_p99_us", Num(pct[2] * 1e6));
  field("latency_mean_us", Num(meanLatency() * 1e6));
  field("latency_max_us", Num(maxLatency() * 1e6));
  field("queue_delay_mean_us", Num(meanQueueDelay() * 1e6));
  field("overlapped_host_s", Num(overlapped_host_s_));
  field("mean_occupancy", Num(meanOccupancy()));
  field("padding_fraction", Num(paddingFraction()));
  std::string hist = "[";
  for (std::size_t k = 0; k < occ_hist_.size(); ++k) {
    if (k > 0) hist += ", ";
    hist += Num(occ_hist_[k]);
  }
  hist += "]";
  field("occupancy_hist", hist);
  // Per-backend occupancy/padding breakdown, present only when at least one
  // backend label was registered: single-backend servers keep the
  // historical key set (and bytes) exactly.
  if (!backends_.empty()) {
    std::string b = "[";
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      const BackendSlice& bs = backends_[i];
      const double mean =
          bs.batches == 0 ? 0.0
                          : static_cast<double>(bs.occupied_slots) /
                                static_cast<double>(bs.batches);
      const double padding =
          bs.batches == 0
              ? 0.0
              : 1.0 - static_cast<double>(bs.occupied_slots) /
                          static_cast<double>(bs.batches * max_batch_);
      if (i > 0) b += ", ";
      b += "{\"backend\": \"" + bs.label + "\", \"batches\": " +
           Num(bs.batches) + ", \"occupied_slots\": " +
           Num(bs.occupied_slots) + ", \"mean_occupancy\": " + Num(mean) +
           ", \"padding_fraction\": " + Num(padding) + "}";
    }
    b += "]";
    field("backends", b);
  }
  s += "}";
  return s;
}

}  // namespace repro::serve
