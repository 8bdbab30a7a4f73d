// The four perfbench workloads. Each fills a Sheet: end-to-end metrics,
// and with RunConfig::trace also the per-layer metrics, the tracing
// overhead and the share of wall time no layer accounts for.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Pool threads for fits and flushes; the serve engine keeps one core
/// back for the load generator and the event loop.
inline constexpr size_t kFitThreads = 4;
inline constexpr size_t kServeWorkers = 3;

/// Fills the end-to-end metrics every workload reports (see README.md for
/// what each one means per workload) and names setup_s and peak_rss_mb in
/// the report; peak_rss_mb is read here.
void ReportEndToEnd(Sheet* sheet, double setup_s, double latency_p50_ms,
                    double throughput_per_s);

void RunFitTensor(const RunConfig& config, Sheet* sheet);
void RunServeMixed(const RunConfig& config, Sheet* sheet);
void RunServeHotTcp(const RunConfig& config, Sheet* sheet);
void RunStreamIngest(const RunConfig& config, Sheet* sheet);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
