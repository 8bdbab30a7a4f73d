// Shared plumbing for the perfbench workloads: clocks and order
// statistics, the metric sheet each workload fills, the benchmark's own
// span recorder (written out as a Chrome trace), readers for the dspot_obs
// counters and histograms, and scratch-directory helpers.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Max(const std::vector<double>& values);

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory, relative to the working directory, for scratch files and
  /// trace output.
  std::string out_dir = ".bench_out";
};

/// What one workload run reports. `e2e` holds the end-to-end metrics
/// (printed with --trace 0), `layer` the per-layer ones (--trace 1), and
/// `report` the human-readable lines printed before the result.
struct Sheet {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// The workload's named end-to-end figures (fit_s, goodput_rps, ...),
  /// printed with their units in the human-readable report.
  struct Named {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Named> named;
  std::vector<std::string> report;

  /// Records a failed correctness check: the run is no longer correct and
  /// the operation it guarded counts as failed.
  void Fail(const std::string& what);
  void Note(const std::string& line) { report.push_back(line); }
};

/// One span of the benchmark's own trace: a public call into a layer, as
/// seen from outside it.
struct SpanRecord {
  const char* name = nullptr;
  uint64_t id = 0;
  uint64_t parent = 0;      ///< 0 = root
  uint64_t request_id = 0;  ///< 0 = not tied to one request
  uint32_t tid = 0;
  double start_us = 0.0;    ///< relative to the recorder's origin
  double end_us = 0.0;
};

/// In-memory span store. Disabled (and free) in untraced runs; armed, it
/// appends under a mutex and is written once, at exit, as a Chrome trace.
class SpanRecorder {
 public:
  static SpanRecorder& Instance();

  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled).
  uint64_t Record(const char* name, Clock::time_point start,
                  Clock::time_point end, uint64_t parent = 0,
                  uint64_t request_id = 0);
  /// Reserves an id for a span whose children are recorded before it.
  uint64_t NextId();
  void RecordWithId(uint64_t id, const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t parent = 0,
                    uint64_t request_id = 0);

  size_t size() const;
  /// Writes {"traceEvents": [...]} with args {id, parent, request_id}.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  SpanRecorder();
  bool enabled_ = false;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call; inert unless the recorder is armed.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t parent = 0, uint64_t request_id = 0);
  ~ScopedSpan();
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_;
  uint64_t request_id_;
  Clock::time_point start_;
};

/// dspot_obs readers. Arming goes through ObsRegistry (the same switch the
/// DSPOT_OBS environment variable flips).
void ArmObs(bool on);
uint64_t ObsCounter(std::string_view name);
/// Sum (ms) of a span-backed or observed histogram.
double ObsHistSumMs(std::string_view name);
/// Median of a histogram estimated from its log2 buckets (interpolated
/// geometrically inside the median's bucket, clamped to [min, max]).
double ObsHistMedianMs(std::string_view name);

/// Peak resident set size of this process, MiB (VmHWM).
double PeakRssMb();

/// Creates a fresh, empty directory (removing any previous one).
bool FreshDir(const std::string& path);
/// Removes a directory tree and syncs, so the removal's I/O is paid here
/// rather than inside a later timed phase.
void RemoveDir(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
