#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include <unistd.h>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::max_element(values.begin(), values.end());
}

void Sheet::Fail(const std::string& what) {
  correct = false;
  ++failed;
  report.push_back("CHECK FAILED: " + what);
}

SpanRecorder& SpanRecorder::Instance() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

uint64_t SpanRecorder::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t SpanRecorder::Record(const char* name, Clock::time_point start,
                              Clock::time_point end, uint64_t parent,
                              uint64_t request_id) {
  if (!enabled_) return 0;
  const uint64_t id = NextId();
  RecordWithId(id, name, start, end, parent, request_id);
  return id;
}

void SpanRecorder::RecordWithId(uint64_t id, const char* name,
                                Clock::time_point start, Clock::time_point end,
                                uint64_t parent, uint64_t request_id) {
  if (!enabled_ || id == 0) return;
  SpanRecord span;
  span.name = name;
  span.id = id;
  span.parent = parent;
  span.request_id = request_id;
  span.tid = static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
  span.start_us = UsBetween(origin_, start);
  span.end_us = UsBetween(origin_, end);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\": [";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %llu, \"parent\": %llu, \"request_id\": %llu}}",
                  i == 0 ? "" : ",", s.name, s.tid, s.start_us,
                  s.end_us - s.start_us, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request_id));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, uint64_t parent, uint64_t request_id)
    : name_(name), parent_(parent), request_id_(request_id) {
  SpanRecorder& recorder = SpanRecorder::Instance();
  if (recorder.enabled()) {
    id_ = recorder.NextId();
    start_ = Clock::now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) {
    SpanRecorder::Instance().RecordWithId(id_, name_, start_, Clock::now(),
                                          parent_, request_id_);
  }
}

void ArmObs(bool on) {
  dspot::ObsRegistry& registry = dspot::ObsRegistry::Instance();
  if (on) {
    registry.Reset();
    registry.Enable();
  } else {
    registry.Disable();
  }
}

uint64_t ObsCounter(std::string_view name) {
  return dspot::ObsRegistry::Instance().Snapshot().CounterValue(name);
}

double ObsHistSumMs(std::string_view name) {
  const dspot::ObsSnapshot snap = dspot::ObsRegistry::Instance().Snapshot();
  const dspot::MetricSnapshot* m = snap.Find(name);
  return m == nullptr ? 0.0 : m->sum;
}

double ObsHistMedianMs(std::string_view name) {
  const dspot::ObsSnapshot snap = dspot::ObsRegistry::Instance().Snapshot();
  const dspot::MetricSnapshot* m = snap.Find(name);
  if (m == nullptr || m->count == 0) return 0.0;
  const double half = 0.5 * static_cast<double>(m->count);
  double seen = 0.0;
  for (size_t i = 0; i < m->buckets.size(); ++i) {
    const double n = static_cast<double>(m->buckets[i]);
    if (n > 0.0 && seen + n >= half) {
      // Bucket i covers [2^(i-7), 2^(i-6)) ms.
      const double lo = std::ldexp(1.0, static_cast<int>(i) - 7);
      const double frac = (half - seen) / n;
      const double est = lo * std::pow(2.0, frac);
      return std::clamp(est, m->min, m->max);
    }
    seen += n;
  }
  return m->max;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool FreshDir(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) RemoveDir(path);
  return std::filesystem::create_directories(path, ec) && !ec;
}

void RemoveDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  // Commit the deletion now: on a filesystem mounted with `discard`, the
  // block discards of thousands of freed files otherwise land in whatever
  // is timed next and slow its file creates by an order of magnitude.
  ::sync();
}

}  // namespace perfbench
