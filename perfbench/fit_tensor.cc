// fit_tensor: FitDspot on the datagen harry_potter tensor (the paper's
// Fig. 1 case: 1 keyword, 8 locations, 575 weekly ticks, datagen seed 1)
// at kFitThreads pool threads, timed per fit. Core, optimize and kernels
// do almost all the work; serve, registry and stream do none.
#include <string>
#include <vector>

#include "core/dspot.h"
#include "core/global_fit.h"
#include "core/local_fit.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dspot::DspotOptions;
using dspot::DspotResult;
using dspot::GeneratedTensor;

/// Datagen seed of the measured tensor. It is fixed rather than drawn from
/// --seed: fit time moves by up to ~1.6x between datagen seeds, far more
/// than any bound a fit-speed change could be judged against.
constexpr uint64_t kTensorSeed = 1;
constexpr size_t kLocations = 8;
constexpr size_t kTicks = 575;
/// The warm-up fit in set-up runs on a shorter tensor of the same shape.
constexpr size_t kWarmupTicks = 150;
/// A planted event counts as recovered when a fitted shock has exactly its
/// period and starts within this many ticks of it.
constexpr size_t kStartTolerance = 2;
/// Correctness floors, below what the fit scores today: recall 2/3 (the
/// one-shot May spike is fitted as a long-period shock) and RMSE 3.5% of
/// the data range.
constexpr double kMinRecall = 0.6;
constexpr double kMaxRmsePct = 5.0;
constexpr size_t kMinFits = 3;

dspot::StatusOr<GeneratedTensor> MakeTensor(size_t ticks, uint64_t seed) {
  dspot::GeneratorConfig config = dspot::GoogleTrendsConfig(seed);
  config.n_ticks = ticks;
  config.num_locations = kLocations;
  config.num_outlier_locations = 0;
  return dspot::GenerateTensor({dspot::HarryPotterScenario()}, config);
}

DspotOptions FitOptions(size_t threads) {
  DspotOptions options;
  options.num_threads = threads;
  return options;
}

/// Share of the planted shocks the fit recovered.
double EventRecall(const DspotResult& result) {
  const auto specs = dspot::HarryPotterScenario().shocks;
  size_t found = 0;
  for (const auto& spec : specs) {
    for (const auto& shock : result.params.shocks) {
      const size_t gap = shock.start > spec.start ? shock.start - spec.start
                                                  : spec.start - shock.start;
      if (shock.period == spec.period && gap <= kStartTolerance) {
        ++found;
        break;
      }
    }
  }
  return specs.empty() ? 1.0
                       : static_cast<double>(found) /
                             static_cast<double>(specs.size());
}

struct FitRun {
  std::vector<double> fit_ms;
  double wall_s = 0.0;
  double recall = 0.0;
  double rmse_pct = 0.0;
};

/// Fits the tensor repeatedly for `seconds` (at least kMinFits times) and
/// checks every result; the fit is deterministic, so every repeat must
/// report the same code length as the first.
FitRun TimeFits(const GeneratedTensor& data, double seconds, Sheet* sheet) {
  FitRun run;
  const dspot::Series global = data.tensor.GlobalSequence(0);
  const double range = global.MaxValue() - global.MinValue();
  double first_cost = 0.0;
  const Clock::time_point t0 = Clock::now();
  while (run.fit_ms.size() < kMinFits || SecondsSince(t0) < seconds) {
    ++sheet->attempted;
    const Clock::time_point f0 = Clock::now();
    dspot::StatusOr<DspotResult> result = [&] {
      ScopedSpan span("dspot.FitDspot");
      return dspot::FitDspot(data.tensor, FitOptions(kFitThreads));
    }();
    run.fit_ms.push_back(MsBetween(f0, Clock::now()));
    if (!result.ok()) {
      sheet->Fail("FitDspot: " + result.status().ToString());
      break;
    }
    if (!result->AllKeywordsOk()) {
      sheet->Fail("FitDspot: a keyword failed to fit");
      continue;
    }
    if (run.fit_ms.size() == 1) {
      first_cost = result->total_cost_bits;
      run.recall = EventRecall(*result);
      run.rmse_pct = 100.0 * result->global_rmse[0] / range;
      if (run.recall < kMinRecall) {
        sheet->Fail("event recall " + std::to_string(run.recall) +
                    " below " + std::to_string(kMinRecall));
      }
      if (!(run.rmse_pct <= kMaxRmsePct)) {
        sheet->Fail("fit RMSE " + std::to_string(run.rmse_pct) +
                    "% of range above " + std::to_string(kMaxRmsePct) + "%");
      }
    } else if (result->total_cost_bits != first_cost) {
      sheet->Fail("repeated fit diverged from the first");
    }
  }
  run.wall_s = SecondsSince(t0);
  return run;
}

}  // namespace

void RunFitTensor(const RunConfig& config, Sheet* sheet) {
  // Set-up: generate the measured tensor, then warm the pool and caches
  // with one short fit. Repeated three times; the median is reported.
  std::vector<double> setup_s;
  dspot::StatusOr<GeneratedTensor> data = dspot::Status::Internal("unset");
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point s0 = Clock::now();
    data = MakeTensor(kTicks, kTensorSeed);
    auto warm = MakeTensor(kWarmupTicks, kTensorSeed);
    if (!data.ok() || !warm.ok()) {
      sheet->Fail("tensor generation failed");
      return;
    }
    auto warm_fit = dspot::FitDspot(warm->tensor, FitOptions(kFitThreads));
    if (!warm_fit.ok()) {
      sheet->Fail("warm-up fit: " + warm_fit.status().ToString());
      return;
    }
    setup_s.push_back(SecondsSince(s0));
  }

  const FitRun untraced = TimeFits(*data, config.seconds, sheet);
  const double fit_ms = Median(untraced.fit_ms);
  const double cells = static_cast<double>(kLocations * kTicks);
  ReportEndToEnd(sheet, Median(setup_s), fit_ms, cells / (fit_ms / 1000.0));
  sheet->named.push_back({"fit_s", fit_ms / 1000.0, "s"});
  sheet->named.push_back({"fit_rmse_pct", untraced.rmse_pct, "%"});
  sheet->named.push_back({"fit_event_recall", untraced.recall, "ratio"});
  sheet->Note("fits timed: " + std::to_string(untraced.fit_ms.size()));
  if (!config.trace) return;

  // Traced: the same loop with dspot_obs and the benchmark's spans armed.
  ArmObs(true);
  SpanRecorder::Instance().Enable();
  const FitRun traced = TimeFits(*data, config.seconds, sheet);
  const double fits = static_cast<double>(traced.fit_ms.size());
  const double fit_sum_ms = ObsHistSumMs("fit_dspot");
  const double layered_ms = ObsHistSumMs("fit_dspot.global_fit") +
                            ObsHistSumMs("fit_dspot.local_fit") +
                            ObsHistSumMs("fit_dspot.estimate");
  auto& layer = sheet->layer;
  layer["core.growth_search_s"] =
      ObsHistSumMs("global_fit.growth_search") / 1000.0 / fits;
  layer["core.shock_candidates"] =
      static_cast<double>(ObsCounter("global_fit.shock_candidates")) / fits;
  layer["core.fit_unattributed_share"] =
      fit_sum_ms > 0.0 ? 1.0 - layered_ms / fit_sum_ms : 0.0;
  layer["optimize.lm_solves"] =
      static_cast<double>(ObsCounter("lm.solves")) / fits;
  layer["optimize.lm_iterations"] =
      static_cast<double>(ObsCounter("lm.iterations")) / fits;
  layer["optimize.lm_jacobian_s"] =
      ObsHistSumMs("lm.jacobian") / 1000.0 / fits;
  layer["parallel.pool_tasks"] =
      static_cast<double>(ObsCounter("pool.tasks_executed")) / fits;
  layer["trace.overhead_ms"] = Median(traced.fit_ms) - fit_ms;
  layer["trace.unattributed_share"] =
      1.0 - layered_ms / (traced.wall_s * 1000.0);
  ArmObs(false);

  // Outside-in: GLOBALFIT and LOCALFIT called separately, untraced.
  {
    DspotOptions options = FitOptions(kFitThreads);
    options.global.num_threads = kFitThreads;
    options.local.num_threads = kFitThreads;
    const Clock::time_point g0 = Clock::now();
    auto params = [&] {
      ScopedSpan span("core.GlobalFit");
      return dspot::GlobalFit(data->tensor, options.global);
    }();
    const Clock::time_point l0 = Clock::now();
    dspot::Status local = dspot::Status::Internal("GlobalFit failed");
    if (params.ok()) {
      ScopedSpan span("core.LocalFit");
      local = dspot::LocalFit(data->tensor, &*params, options.local);
    }
    const Clock::time_point l1 = Clock::now();
    if (!local.ok()) sheet->Fail("GlobalFit/LocalFit: " + local.ToString());
    layer["core.global_fit_s"] = MsBetween(g0, l0) / 1000.0;
    layer["core.local_fit_s"] = MsBetween(l0, l1) / 1000.0;
  }
  // Thread scaling: the same fit at one pool thread.
  {
    const Clock::time_point s0 = Clock::now();
    auto serial = [&] {
      ScopedSpan span("dspot.FitDspot.1thread");
      return dspot::FitDspot(data->tensor, FitOptions(1));
    }();
    const double serial_ms = MsBetween(s0, Clock::now());
    if (!serial.ok()) sheet->Fail("1-thread fit: " + serial.status().ToString());
    layer["parallel.fit_speedup_4v1"] = serial_ms / fit_ms;
  }
}

}  // namespace perfbench
