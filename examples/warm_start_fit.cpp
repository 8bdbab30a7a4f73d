// Model snapshots and warm-started refits: fit once, save the model,
// then reload it to (a) warm-start a refit that converges in far fewer
// solver iterations than the cold MDL search, and (b) absorb newly
// appended ticks with UpdateFit, which reuses the cached shock schedule
// for keywords whose new data stays quiet.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/warm_start_fit

#include <chrono>
#include <cstdio>

#include "core/dspot.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
#include "obs/metrics.h"
#include "snapshot/snapshot.h"
#include "snapshot/update.h"

namespace {

// The "lm.iterations" counter since the last registry reset — the number
// of Levenberg–Marquardt steps the fit spent.
double LmIterations() {
  return static_cast<double>(
      dspot::ObsRegistry::Instance().Snapshot().CounterValue(
          "lm.iterations"));
}

}  // namespace

int main() {
  using namespace dspot;  // NOLINT: example brevity

  // Counters (cheap) let us compare solver effort cold vs warm.
  ObsRegistry::Instance().Enable(ObsOptions());

  GeneratorConfig config = GoogleTrendsConfig();
  config.num_locations = 4;
  auto generated = GenerateTensor(TrendingKeywordSuite(), config);
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const ActivityTensor& tensor = generated->tensor;
  std::printf("Tensor: %zu keywords x %zu locations x %zu ticks\n\n",
              tensor.num_keywords(), tensor.num_locations(),
              tensor.num_ticks());

  // 1. Cold fit: the full multi-start MDL search.
  ObsRegistry::Instance().Reset();
  const auto t0 = std::chrono::steady_clock::now();
  auto cold = FitDspot(tensor);
  if (!cold.ok()) {
    std::fprintf(stderr, "fit failed: %s\n", cold.status().ToString().c_str());
    return 1;
  }
  const double cold_ms = ElapsedMs(t0);
  const double cold_iters = LmIterations();
  std::printf("[cold fit]   %.0f ms, %.0f LM iterations, MDL %.0f bits\n",
              cold_ms, cold_iters, cold->total_cost_bits);

  // 2. Save the fitted model and load it back; the snapshot decodes to
  // the same model bit for bit.
  const std::string path = "warm_start_fit.model";
  const ModelSnapshot snapshot = MakeSnapshot(*cold, tensor);
  if (Status s = SaveSnapshot(snapshot, path); !s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto loaded = LoadSnapshot(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("[snapshot]   saved + reloaded %s (%zu shocks)\n", path.c_str(),
              loaded->params.shocks.size());

  // 3. Warm refit on the same data: each keyword is seeded from the
  // loaded parameters and shock schedule, skipping the cold search.
  ObsRegistry::Instance().Reset();
  const auto t1 = std::chrono::steady_clock::now();
  DspotOptions warm_options;
  warm_options.warm_start = &loaded->params;
  auto warm = FitDspot(tensor, warm_options);
  if (!warm.ok()) {
    std::fprintf(stderr, "warm refit failed: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }
  const double warm_ms = ElapsedMs(t1);
  const double warm_iters = LmIterations();
  std::printf("[warm refit] %.0f ms, %.0f LM iterations, MDL %.0f bits "
              "(%.1fx fewer iterations)\n",
              warm_ms, warm_iters, warm->total_cost_bits,
              warm_iters > 0 ? cold_iters / warm_iters : 0.0);

  // 4. Incremental update: pretend one extra year of quiet data arrived.
  // UpdateFit decides per keyword whether the cached shock schedule still
  // explains the appended window; quiet keywords skip shock re-detection.
  const size_t appended = 52;
  ActivityTensor extended(tensor.num_keywords(), tensor.num_locations(),
                          tensor.num_ticks() + appended);
  for (size_t i = 0; i < tensor.num_keywords(); ++i) {
    (void)extended.SetKeywordName(i, tensor.keywords()[i]);
    for (size_t j = 0; j < tensor.num_locations(); ++j) {
      for (size_t t = 0; t < tensor.num_ticks(); ++t) {
        extended.at(i, j, t) = tensor.at(i, j, t);
      }
      // The appended year repeats the last observed tick: no bursts, so
      // the cached schedules should survive.
      for (size_t t = 0; t < appended; ++t) {
        extended.at(i, j, tensor.num_ticks() + t) =
            tensor.at(i, j, tensor.num_ticks() - 1);
      }
    }
  }
  auto update = UpdateFit(*loaded, extended);
  if (!update.ok()) {
    std::fprintf(stderr, "update failed: %s\n",
                 update.status().ToString().c_str());
    return 1;
  }
  size_t redetected = 0;
  for (const bool r : update->redetected) redetected += r ? 1 : 0;
  std::printf("[update]     absorbed %zu ticks; %zu/%zu keyword(s) "
              "re-detected shocks\n",
              update->appended_ticks, redetected, update->redetected.size());
  std::remove(path.c_str());
  return 0;
}
