// Failure-injection and degenerate-input robustness: the fitter and its
// substrates must return clean errors or sane fits — never crash, hang or
// emit non-finite values — on hostile inputs.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "baselines/ar.h"
#include "baselines/tbats.h"
#include "core/dspot.h"
#include "core/global_fit.h"
#include "common/random.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
#include "epidemics/sir_family.h"
#include "guard/fault_injector.h"
#include "guard/guard.h"
#include "snapshot/snapshot.h"
#include "timeseries/metrics.h"

namespace dspot {
namespace {

Series ConstantSeries(size_t n, double v) {
  Series s(n);
  for (size_t t = 0; t < n; ++t) s[t] = v;
  return s;
}

TEST(Robustness, ConstantSeriesFitsWithoutEvents) {
  auto fit = FitGlobalSequence(ConstantSeries(128, 25.0), 0, 1);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_TRUE(fit->shocks.empty());
  EXPECT_LT(fit->rmse, 2.0);
  for (size_t t = 0; t < fit->estimate.size(); ++t) {
    ASSERT_TRUE(std::isfinite(fit->estimate[t]));
  }
}

TEST(Robustness, AllZeroSeries) {
  auto fit = FitGlobalSequence(ConstantSeries(96, 0.0), 0, 1);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_LT(fit->rmse, 1.0);
}

TEST(Robustness, MostlyMissingSeriesRejectedOrFit) {
  Series s(100);
  for (size_t t = 0; t < 100; ++t) s[t] = kMissingValue;
  // 10 observed points: below the fitter's floor -> clean error.
  for (size_t t = 0; t < 10; ++t) s[t * 10] = 5.0;
  auto fit = FitGlobalSequence(s, 0, 1);
  EXPECT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
}

TEST(Robustness, HalfMissingStillFits) {
  GeneratorConfig config = GoogleTrendsConfig(3);
  config.n_ticks = 260;
  config.num_locations = 4;
  config.num_outlier_locations = 0;
  config.missing_rate = 0.5;
  auto data = GenerateGlobalSequence(GrammyScenario(), config);
  ASSERT_TRUE(data.ok());
  auto fit = FitGlobalSequence(*data, 0, 1);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  for (size_t t = 0; t < fit->estimate.size(); ++t) {
    ASSERT_TRUE(std::isfinite(fit->estimate[t]));
  }
}

TEST(Robustness, SingleExtremeOutlierDoesNotPoisonFit) {
  Series s = ConstantSeries(200, 10.0);
  s[77] = 1e5;  // a data glitch, not an event the base should absorb
  auto fit = FitGlobalSequence(s, 0, 1);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  // Away from the glitch, the fit stays at the signal's order of
  // magnitude — not dragged toward the 1e5 outlier (N >= peak forces the
  // dynamics to a huge population, so some level distortion is expected).
  double err = 0.0;
  size_t count = 0;
  for (size_t t = 0; t < 60; ++t) {
    err += std::fabs(fit->estimate[t] - 10.0);
    ++count;
  }
  EXPECT_LT(err / static_cast<double>(count), 50.0);
}

TEST(Robustness, TinyMagnitudeSeries) {
  Random rng(5);
  Series s(128);
  for (size_t t = 0; t < s.size(); ++t) {
    s[t] = 1e-4 * (1.0 + 0.1 * rng.Gaussian());
  }
  auto fit = FitGlobalSequence(s, 0, 1);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_TRUE(std::isfinite(fit->rmse));
}

TEST(Robustness, HugeMagnitudeSeries) {
  Random rng(6);
  Series s(128);
  for (size_t t = 0; t < s.size(); ++t) {
    s[t] = 1e8 * (1.0 + 0.1 * rng.Gaussian());
  }
  auto fit = FitGlobalSequence(s, 0, 1);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_TRUE(std::isfinite(fit->rmse));
  EXPECT_LT(fit->rmse, 1e8);
}

TEST(Robustness, PureNoiseFindsFewOrNoEvents) {
  Random rng(8);
  Series s(312);
  for (size_t t = 0; t < s.size(); ++t) {
    s[t] = std::max(20.0 + rng.Gaussian(0.0, 4.0), 0.0);
  }
  auto fit = FitGlobalSequence(s, 0, 1);
  ASSERT_TRUE(fit.ok());
  // White noise admits no justified events (allow at most one marginal
  // false positive across the whole sequence).
  EXPECT_LE(fit->shocks.size(), 1u);
}

TEST(Robustness, BaselinesHandleConstantInput) {
  const Series s = ConstantSeries(120, 5.0);
  EXPECT_TRUE(ArModel::Fit(s, 4).ok());
  auto sirs = FitSirs(s);
  ASSERT_TRUE(sirs.ok());
  EXPECT_TRUE(std::isfinite(sirs->info.rmse));
}

TEST(Robustness, TbatsConstantInput) {
  TbatsConfig config;
  config.period = 12;
  auto model = TbatsModel::Fit(ConstantSeries(120, 5.0), config);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  Series f = model->Forecast(ConstantSeries(120, 5.0), 12);
  for (size_t t = 0; t < f.size(); ++t) {
    EXPECT_NEAR(f[t], 5.0, 1.0);
  }
}

TEST(Robustness, ForecastHorizonZero) {
  ModelParamSet params;
  params.num_keywords = 1;
  params.num_locations = 1;
  params.num_ticks = 64;
  params.global.resize(1);
  auto fc = ForecastGlobal(params, 0, 0);
  ASSERT_TRUE(fc.ok());
  EXPECT_EQ(fc->size(), 0u);
}

TEST(Robustness, TensorWithOneTick) {
  // Degenerate duration: generation refuses (< 8 ticks).
  GeneratorConfig config;
  config.n_ticks = 4;
  config.num_locations = 2;
  EXPECT_FALSE(GenerateTensor({GrammyScenario()}, config).ok());
}

TEST(Robustness, FitDspotSingleOnShortButValidSeries) {
  GeneratorConfig config = GoogleTrendsConfig(4);
  config.n_ticks = 64;
  config.num_locations = 3;
  config.num_outlier_locations = 0;
  KeywordScenario sc = GrammyScenario();
  sc.shocks[0].period = 26;
  sc.shocks[0].start = 6;
  auto data = GenerateGlobalSequence(sc, config);
  ASSERT_TRUE(data.ok());
  auto fit = FitDspotSingle(*data);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
}

// ---------------------------------------------------------------------------
// Guards and fault injection across the full pipeline

/// A 2-keyword, 3-location tensor small enough that the fault-injection
/// matrix below stays cheap.
ActivityTensor SmallTensor() {
  GeneratorConfig config = GoogleTrendsConfig(7);
  config.n_ticks = 104;
  config.num_locations = 3;
  config.num_outlier_locations = 0;
  auto generated = GenerateTensor({GrammyScenario(), EbolaScenario()}, config);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  return generated->tensor;
}

/// Bit-identical model comparison (not merely "close"): the pipeline
/// promises the same floating-point sequence at any thread count and under
/// an armed-but-silent fault injector.
void ExpectSameModel(const DspotResult& a, const DspotResult& b) {
  ASSERT_EQ(a.params.global.size(), b.params.global.size());
  for (size_t i = 0; i < a.params.global.size(); ++i) {
    const KeywordGlobalParams& ga = a.params.global[i];
    const KeywordGlobalParams& gb = b.params.global[i];
    EXPECT_EQ(ga.population, gb.population) << "keyword " << i;
    EXPECT_EQ(ga.beta, gb.beta) << "keyword " << i;
    EXPECT_EQ(ga.delta, gb.delta) << "keyword " << i;
    EXPECT_EQ(ga.gamma, gb.gamma) << "keyword " << i;
    EXPECT_EQ(ga.i0, gb.i0) << "keyword " << i;
    EXPECT_EQ(ga.growth_rate, gb.growth_rate) << "keyword " << i;
    EXPECT_EQ(ga.growth_start, gb.growth_start) << "keyword " << i;
  }
  ASSERT_EQ(a.params.shocks.size(), b.params.shocks.size());
  for (size_t i = 0; i < a.params.shocks.size(); ++i) {
    EXPECT_EQ(a.params.shocks[i].ToString(), b.params.shocks[i].ToString());
  }
  EXPECT_EQ(a.params.base_local.data(), b.params.base_local.data());
  EXPECT_EQ(a.params.growth_local.data(), b.params.growth_local.data());
  EXPECT_EQ(a.global_rmse, b.global_rmse);
  EXPECT_EQ(a.total_cost_bits, b.total_cost_bits);
}

TEST(Robustness, GuardsInactiveFitDspotBitIdenticalAcrossThreads) {
  const ActivityTensor tensor = SmallTensor();
  DspotOptions serial;
  serial.num_threads = 1;
  DspotOptions wide;
  wide.num_threads = 8;
  auto a = FitDspot(tensor, serial);
  auto b = FitDspot(tensor, wide);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a->AllKeywordsOk());
  EXPECT_FALSE(a->health.interrupted());
  ExpectSameModel(*a, *b);
}

TEST(Robustness, ArmedButSilentInjectorIsBitIdentical) {
  const ActivityTensor tensor = SmallTensor();
  DspotOptions options;
  options.num_threads = 1;
  auto baseline = FitDspot(tensor, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  // rate 0: every guard/fault probe runs (the armed gate is open) but no
  // fault ever fires — the extra checks must not perturb the numerics.
  FaultInjector::Instance().Arm(/*seed=*/11, /*rate=*/0.0);
  auto probed = FitDspot(tensor, options);
  FaultInjector::Instance().Disarm();
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  ExpectSameModel(*baseline, *probed);
}

TEST(Robustness, TimeBudgetReturnsPartialFitAsOk) {
  // Big enough that a full serial fit takes far longer than the budget.
  GeneratorConfig config = GoogleTrendsConfig(2);
  config.n_ticks = 260;
  config.num_locations = 4;
  auto generated = GenerateTensor(TrendingKeywordSuite(), config);
  ASSERT_TRUE(generated.ok());
  DspotOptions options;
  options.num_threads = 1;
  options.time_budget_ms = 50.0;
  const auto t0 = std::chrono::steady_clock::now();
  auto fit = FitDspot(generated->tensor, options);
  const double elapsed = ElapsedMs(t0);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_EQ(fit->health.termination, FitTermination::kDeadlineExceeded);
  EXPECT_TRUE(fit->health.interrupted());
  // Checks sit at solver-iteration granularity, so allow generous
  // scheduler/sanitizer slack over the nominal 2x budget.
  EXPECT_LT(elapsed, 1000.0);
  // The partial model is structurally complete and usable.
  EXPECT_EQ(fit->params.global.size(), generated->tensor.num_keywords());
  for (const Series& estimate : fit->global_estimates) {
    for (size_t t = 0; t < estimate.size(); ++t) {
      EXPECT_TRUE(std::isfinite(estimate[t]));
    }
  }
}

TEST(Robustness, PreCancelledTokenAbortsFitDspot) {
  const ActivityTensor tensor = SmallTensor();
  DspotOptions options;
  options.cancel = CancellationToken::Cancellable();
  options.cancel.Cancel();
  auto fit = FitDspot(tensor, options);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kCancelled);
}

TEST(Robustness, SkipAndReportKeepsGoodKeywords) {
  // Keyword 0 is healthy; keyword 1 has too few observations to fit.
  ActivityTensor tensor(2, 1, 96);
  for (size_t t = 0; t < 96; ++t) {
    tensor.at(0, 0, t) = 20.0 + 5.0 * std::sin(static_cast<double>(t) / 9.0);
    tensor.at(1, 0, t) = kMissingValue;
  }
  for (size_t t = 0; t < 10; ++t) tensor.at(1, 0, t * 9) = 5.0;

  DspotOptions fail_options;  // default policy: one bad keyword sinks all
  EXPECT_FALSE(FitDspot(tensor, fail_options).ok());

  DspotOptions skip_options;
  skip_options.on_keyword_error = KeywordErrorPolicy::kSkipAndReport;
  auto fit = FitDspot(tensor, skip_options);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_FALSE(fit->AllKeywordsOk());
  ASSERT_EQ(fit->keyword_status.size(), 2u);
  EXPECT_TRUE(fit->keyword_status[0].ok());
  EXPECT_EQ(fit->keyword_status[1].code(), StatusCode::kInvalidArgument);
  // The healthy keyword's fit is real, not a placeholder.
  ASSERT_EQ(fit->global_estimates.size(), 2u);
  EXPECT_LT(fit->global_rmse[0], 10.0);
  for (size_t t = 0; t < fit->global_estimates[0].size(); ++t) {
    EXPECT_TRUE(std::isfinite(fit->global_estimates[0][t]));
  }
}

TEST(Robustness, FaultInjectionMatrixFailsCleanly) {
  const ActivityTensor tensor = SmallTensor();
  const FaultSite sites[] = {FaultSite::kNanAtResidual,
                             FaultSite::kSolverFailure,
                             FaultSite::kAllocation,
                             FaultSite::kDeadlineExpiry};
  for (FaultSite site : sites) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      SCOPED_TRACE(std::string(FaultSiteName(site)) + " x " +
                   std::to_string(threads) + " threads");
      // The CI sweep varies DSPOT_FAULT_SEED to shift which draws fire;
      // locally the fallback keeps the run reproducible.
      FaultInjector::Instance().ArmSite(
          site,
          FaultInjector::SeedFromEnv(0xD590 + static_cast<uint64_t>(site)),
          /*rate=*/0.02);
      DspotOptions options;
      options.num_threads = threads;
      options.on_keyword_error = KeywordErrorPolicy::kSkipAndReport;
      auto fit = FitDspot(tensor, options);
      FaultInjector::Instance().Disarm();
      if (fit.ok()) {
        // A fit that survives injection must be fully finite.
        for (const Series& estimate : fit->global_estimates) {
          for (size_t t = 0; t < estimate.size(); ++t) {
            ASSERT_TRUE(std::isfinite(estimate[t]));
          }
        }
        EXPECT_TRUE(std::isfinite(fit->total_cost_bits));
      } else {
        // Failing is acceptable — but only with a clean, descriptive
        // Status, never a crash, hang, or poisoned output.
        EXPECT_FALSE(fit.status().message().empty());
      }
    }
  }
}

// --- Snapshot corruption: a hostile or damaged model file must produce a
// clean, located error (InvalidArgument for not-a-snapshot / unsupported
// version, DataLoss for corruption), and never a crash or a silently
// wrong model. ---

std::string SnapshotFuzzPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path,
                   const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A tiny hand-built snapshot (no fitting) for corruption tests.
ModelSnapshot TinySnapshot() {
  ModelSnapshot snapshot;
  ModelParamSet& params = snapshot.params;
  params.num_keywords = 2;
  params.num_locations = 1;
  params.num_ticks = 64;
  params.global.resize(2);
  params.global[0].population = 120.0;
  params.global[1].growth_start = kNpos;
  Shock shock;
  shock.keyword = 1;
  shock.start = 17;
  shock.width = 2;
  shock.base_strength = 0.4;
  params.shocks.push_back(shock);
  snapshot.keywords = {"alpha", "beta"};
  snapshot.locations = {"global"};
  snapshot.global_rmse = {1.5, 2.5};
  snapshot.total_cost_bits = 321.0;
  return snapshot;
}

TEST(SnapshotRobustness, TruncatedBinaryIsCleanDataLoss) {
  const std::string path = SnapshotFuzzPath("trunc.snap");
  ASSERT_TRUE(SaveSnapshot(TinySnapshot(), path).ok());
  const std::vector<uint8_t> bytes = ReadAllBytes(path);
  ASSERT_GT(bytes.size(), 24u);
  // Every strict prefix must fail cleanly — never crash, never return a
  // partially decoded model.
  for (size_t len : {bytes.size() - 1, bytes.size() - 5, bytes.size() / 2,
                     size_t{21}, size_t{13}, size_t{9}}) {
    WriteAllBytes(path, std::vector<uint8_t>(bytes.begin(),
                                             bytes.begin() + len));
    auto loaded = LoadSnapshot(path);
    ASSERT_FALSE(loaded.ok()) << "prefix " << len;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "prefix " << len << ": " << loaded.status().ToString();
    // The error names the file, so an operator can find the bad artifact.
    EXPECT_NE(loaded.status().message().find("trunc.snap"),
              std::string::npos);
    // A cut file is caught by its length fields. A checksum mismatch here
    // would mean the CRC trailer was read from past the end of the file.
    EXPECT_EQ(loaded.status().message().find("checksum"), std::string::npos)
        << "prefix " << len << ": " << loaded.status().ToString();
  }
}

TEST(SnapshotRobustness, FlippedPayloadByteFailsChecksumWithOffset) {
  const std::string path = SnapshotFuzzPath("flip.snap");
  ASSERT_TRUE(SaveSnapshot(TinySnapshot(), path).ok());
  std::vector<uint8_t> bytes = ReadAllBytes(path);
  bytes[bytes.size() / 2] ^= 0x40;  // inside the payload
  WriteAllBytes(path, bytes);
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("offset"), std::string::npos)
      << loaded.status().ToString();
}

TEST(SnapshotRobustness, BadMagicIsInvalidArgumentNotDataLoss) {
  const std::string path = SnapshotFuzzPath("magic.snap");
  ASSERT_TRUE(SaveSnapshot(TinySnapshot(), path).ok());
  std::vector<uint8_t> bytes = ReadAllBytes(path);
  bytes[0] = 'X';
  WriteAllBytes(path, bytes);
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // A JSON document, including one shaped like a snapshot, is not a
  // snapshot either: it is rejected at the magic, not parsed.
  const std::string json = "{\"format\": \"dspot_snapshot\", \"version\": 1}";
  WriteAllBytes(path, std::vector<uint8_t>(json.begin(), json.end()));
  loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();

  // Deep nesting must not recurse: 10,000 '[' after a JSON-looking prefix.
  const std::string deep = "{\"format\":" + std::string(10000, '[');
  WriteAllBytes(path, std::vector<uint8_t>(deep.begin(), deep.end()));
  loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
}

TEST(SnapshotRobustness, FutureBinaryVersionIsInvalidArgumentNamingBoth) {
  const std::string path = SnapshotFuzzPath("future.snap");
  ASSERT_TRUE(SaveSnapshot(TinySnapshot(), path).ok());
  std::vector<uint8_t> bytes = ReadAllBytes(path);
  // The u32 version sits right after the 8-byte magic (little-endian).
  bytes[8] = 0x2A;
  WriteAllBytes(path, bytes);
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("42"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(
                std::to_string(kSnapshotVersion)),
            std::string::npos);
}

TEST(SnapshotRobustness, RandomByteFlipsNeverCrash) {
  const std::string path = SnapshotFuzzPath("fuzzbin.snap");
  ASSERT_TRUE(SaveSnapshot(TinySnapshot(), path).ok());
  const std::vector<uint8_t> pristine = ReadAllBytes(path);
  Random rng(20260805);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    // 1-3 random flips anywhere in the file.
    const int flips = 1 + static_cast<int>(rng.UniformInt(0, 2));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
      bytes[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
    }
    WriteAllBytes(path, bytes);
    auto loaded = LoadSnapshot(path);
    if (loaded.ok()) {
      // Every byte is covered by the magic, the version gate or the CRC,
      // so a load succeeds only when the flips cancelled out.
      EXPECT_EQ(bytes, pristine) << "trial " << trial;
      continue;
    }
    // Any failure must be a located, descriptive error — never a crash
    // and never a partial model.
    EXPECT_FALSE(loaded.status().message().empty());
    const StatusCode code = loaded.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
}

}  // namespace
}  // namespace dspot
