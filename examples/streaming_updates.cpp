// Streaming walkthrough: online services receive new ticks continuously.
// Instead of refitting from scratch each week, RefitGlobalSequence warm-
// starts from the previous model, extends cyclic events over the new
// range, and runs a short alternation — much cheaper, and the event
// inventory stays stable across updates.
//
// Demonstrates: FitGlobalSequence (cold), RefitGlobalSequence (warm),
// stability of the detected events, cost of each update.

#include <chrono>
#include <cstdio>

#include "core/global_fit.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"

int main() {
  using namespace dspot;  // NOLINT: example brevity
  using Clock = std::chrono::steady_clock;

  // Full history: 11 years of an annual event.
  GeneratorConfig config = GoogleTrendsConfig();
  auto full = GenerateGlobalSequence(GrammyScenario(), config);
  if (!full.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 full.status().ToString().c_str());
    return 1;
  }

  // Cold fit on the first 6 years.
  const size_t initial_ticks = 312;
  auto t0 = Clock::now();
  auto cold = FitGlobalSequence(full->Slice(0, initial_ticks), 0, 1);
  auto t1 = Clock::now();
  if (!cold.ok()) {
    std::fprintf(stderr, "cold fit failed: %s\n",
                 cold.status().ToString().c_str());
    return 1;
  }
  // Unwrap once: the loop below replaces a plain value rather than
  // reassigning a StatusOr it then reads through.
  GlobalSequenceFit model = std::move(cold).value();
  std::printf("cold fit on %zu ticks: %.2fs, RMSE %.2f, %zu event(s)\n",
              initial_ticks,
              std::chrono::duration<double>(t1 - t0).count(), model.rmse,
              model.shocks.size());

  // Stream in the remaining years, one year at a time.
  for (size_t end = initial_ticks + 52; end <= full->size(); end += 52) {
    const Series history = full->Slice(0, end);
    t0 = Clock::now();
    auto updated = RefitGlobalSequence(history, 0, 1, model);
    t1 = Clock::now();
    if (!updated.ok()) {
      std::fprintf(stderr, "refit failed: %s\n",
                   updated.status().ToString().c_str());
      return 1;
    }
    model = std::move(updated).value();
    std::printf("  +1 year -> %4zu ticks: %.2fs, RMSE %.2f, %zu event(s)\n",
                end, std::chrono::duration<double>(t1 - t0).count(),
                model.rmse, model.shocks.size());
  }

  std::printf("\nfinal event inventory after streaming updates:\n");
  for (const Shock& shock : model.shocks) {
    std::printf("  %s\n", shock.ToString().c_str());
  }
  std::printf("\nThe annual event persists across every update, with its "
              "occurrence list extended as new years arrive.\n");
  return 0;
}
