// perfbench benchmark binary: runs one workload and prints a human-readable
// report followed by one raw JSON line (every metric the workload
// measured). perfbench/run.py builds this binary, runs it, and turns that
// line into the benchmark's result object.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fit_tensor|serve_mixed|serve_hot_tcp|stream_ingest "
               "--seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

void PrintNumber(const char* key, double value, bool comma) {
  if (!std::isfinite(value)) value = 0.0;
  std::printf("\"%s\": %.17g%s", key, value, comma ? ", " : "");
}

void PrintMap(const char* key, const std::map<std::string, double>& values) {
  std::printf("\"%s\": {", key);
  size_t i = 0;
  for (const auto& [name, value] : values) {
    PrintNumber(name.c_str(), value, ++i < values.size());
  }
  std::printf("}");
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      char* end = nullptr;
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     config.seconds > 0.0 && config.seconds <= 600.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  void (*run)(const RunConfig&, Sheet*) = nullptr;
  if (config.workload == "fit_tensor") run = RunFitTensor;
  if (config.workload == "serve_mixed") run = RunServeMixed;
  if (config.workload == "serve_hot_tcp") run = RunServeHotTcp;
  if (config.workload == "stream_ingest") run = RunStreamIngest;
  if (run == nullptr) return Usage("unknown workload");
  if (!FreshDir(config.out_dir + "/scratch-" + config.workload)) {
    return Usage("cannot create the scratch directory");
  }

  Sheet sheet;
  const Clock::time_point t0 = Clock::now();
  run(config, &sheet);
  const double wall_s = SecondsSince(t0);
  RemoveDir(config.out_dir + "/scratch-" + config.workload);

  if (config.trace) {
    sheet.layer["trace.spans"] =
        static_cast<double>(SpanRecorder::Instance().size());
    const std::string path = config.out_dir + "/trace-" + config.workload +
                             "-seed" + std::to_string(config.seed) + ".json";
    if (SpanRecorder::Instance().WriteChromeTrace(path)) {
      sheet.Note("chrome trace of the benchmark's spans: " + path);
    } else {
      sheet.Fail("could not write " + path);
    }
  }

  std::printf("perfbench %s seed %llu seconds %g trace %d: %.1f s wall\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, wall_s);
  for (const std::string& line : sheet.report) {
    std::printf("  %s\n", line.c_str());
  }
  for (const Sheet::Named& m : sheet.named) {
    std::printf("  metric %-24s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              sheet.correct ? "true" : "false",
              static_cast<unsigned long long>(sheet.attempted),
              static_cast<unsigned long long>(sheet.failed));
  PrintMap("e2e", sheet.e2e);
  std::printf(", ");
  PrintMap("layer", sheet.layer);
  std::printf("}\n");
  std::fflush(stdout);
  return sheet.correct ? 0 : 1;
}

}  // namespace

void ReportEndToEnd(Sheet* sheet, double setup_s, double latency_p50_ms,
                    double throughput_per_s) {
  sheet->e2e["setup_s"] = setup_s;
  sheet->e2e["latency_p50_ms"] = latency_p50_ms;
  sheet->e2e["throughput_per_s"] = throughput_per_s;
  sheet->e2e["peak_rss_mb"] = PeakRssMb();
  sheet->named.push_back({"setup_s", setup_s, "s"});
  sheet->named.push_back({"peak_rss_mb", sheet->e2e["peak_rss_mb"], "MB"});
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
