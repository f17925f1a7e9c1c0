#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

// The layer of a span name: everything before the first '.'.
std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string name) : rec_(rec) {
  if (rec_ != nullptr) index_ = rec_->Begin(std::move(name));
}

SpanRecorder::Scope::~Scope() {
  if (rec_ != nullptr) rec_->End(index_);
}

SpanRecorder::Scope SpanRecorder::Iteration(std::uint64_t id) {
  iteration_ = id;
  return Scope(enabled_ ? this : nullptr, "bench.iteration");
}

int SpanRecorder::Begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.iteration = iteration_;
  s.start_s = Now();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  spans_[index].end_s = Now();
  open_.pop_back();
}

void SpanRecorder::AddDerived(int parent, std::string name, double seconds) {
  if (!enabled_ || parent < 0 || seconds <= 0.0) return;
  const Span& p = spans_[parent];
  // Back to back after the parent's earlier derived children.
  double start = p.start_s;
  for (std::size_t i = parent + 1; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.derived && s.parent == parent) start = std::max(start, s.end_s);
  }
  Span d;
  d.name = std::move(name);
  d.parent = parent;
  d.iteration = p.iteration;
  d.derived = true;
  d.start_s = start;
  d.end_s = std::min(p.end_s, start + seconds);
  spans_.push_back(std::move(d));
}

std::map<std::uint64_t, std::map<std::string, double>>
SpanRecorder::DurationsByName() const {
  std::map<std::uint64_t, std::map<std::string, double>> out;
  for (const Span& s : spans_) out[s.iteration][s.name] += s.end_s - s.start_s;
  return out;
}

std::map<std::uint64_t, std::map<std::string, double>>
SpanRecorder::SelfTimeByLayer() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_s, s.end_s});
  }
  std::map<std::uint64_t, std::map<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, lo = s.start_s;
    for (const auto& [a, b] : kids) {
      const double from = std::max(a, lo), to = std::min(b, s.end_s);
      if (to > from) covered += to - from;
      lo = std::max(lo, to);
    }
    out[s.iteration][LayerOf(s.name)] += (s.end_s - s.start_s) - covered;
  }
  return out;
}

std::string SpanRecorder::ChromeTraceJson() const {
  std::string json = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Derived spans get their own row so they never straddle a real child.
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"iteration\": %llu, \"parent\": %d, "
                  "\"derived\": %s}}",
                  i == 0 ? "" : ",\n", s.name.c_str(), LayerOf(s.name).c_str(),
                  s.derived ? 2 : 1, s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6,
                  static_cast<unsigned long long>(s.iteration), s.parent,
                  s.derived ? "true" : "false");
    json += buf;
  }
  return json + "]}\n";
}

}  // namespace perfbench
