// stream_ingest: replays a pre-generated tick stream (64 hot, bursting
// keywords plus a quiet tail 1000x larger) through DurableEngine with the
// WAL on (kOnFlush) and automatic checkpoints off, then reopens the
// directory to time full-log recovery. Append, WAL writes, flush triage
// and refits, and replay run here; the serve layers do not.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/tick_stream.h"
#include "durable/durable_engine.h"
#include "stream/stream_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dspot::DurableEngine;
using dspot::DurableOptions;
using dspot::StreamEngine;
using dspot::TickRecord;

constexpr size_t kHotKeywords = 64;
constexpr size_t kQuietKeywords = 64000;
constexpr size_t kKeywords = kHotKeywords + kQuietKeywords;
/// The engine triages dirty keywords every kFlushEvery ticks of stream
/// time, like a periodic ingest batch.
constexpr int64_t kFlushEvery = 8;
/// Every kSampleEvery-th quiet-keyword append is timed on its own for the
/// append percentiles (timing every append would measure the clock).
constexpr size_t kSampleEvery = 16;
constexpr size_t kMinPasses = 2;

dspot::TickStreamConfig StreamConfig(uint64_t seed) {
  dspot::TickStreamConfig config;
  config.num_keywords = kKeywords;
  config.hot_keywords = kHotKeywords;
  config.num_ticks = 96;
  config.quiet_ticks = 8;
  config.burst_start = 48;
  config.burst_width = 4;
  config.seed = seed;
  return config;
}

uint64_t PassSeed(uint64_t seed, size_t pass) {
  return dspot::SplitMix64(seed * 1000003 + pass);
}

dspot::StreamOptions EngineOptions() {
  dspot::StreamOptions options;
  options.num_threads = kFitThreads;
  options.ring_capacity = 128;
  options.min_fit_ticks = 32;
  options.refit_interval = 16;
  options.forecast_horizon = 16;
  return options;
}

DurableOptions WalOptions() {
  DurableOptions options;
  options.stream = EngineOptions();
  options.fsync_policy = dspot::FsyncPolicy::kOnFlush;
  options.checkpoint_every_flushes = 0;
  options.max_wal_bytes = 0;
  return options;
}

/// One replay of the stream through an engine.
struct Pass {
  double append_s = 0.0;  ///< inside append windows
  double flush_s = 0.0;   ///< inside Flush()
  double wall_s = 0.0;    ///< the whole replay loop
  size_t appends = 0;
  std::vector<double> flush_ms;
  std::vector<double> lag_ms;  ///< publish lag of flushes that refit
  std::vector<double> append_us;  ///< sampled quiet-keyword appends
  dspot::StreamStats stats;
  std::vector<uint8_t> state;
};

/// Replays `records` through `api` (a StreamEngine or a DurableEngine);
/// `engine` is the StreamEngine underneath, for reads.
template <typename Api>
Pass Replay(const std::vector<TickRecord>& records, Api& api,
            const StreamEngine& engine, bool sample, Sheet* sheet) {
  Pass pass;
  std::vector<double> horizon(engine.options().forecast_horizon);
  int64_t window_tick = -1;
  Clock::time_point window_start = Clock::now();
  Clock::time_point last_append = window_start;
  const auto flush = [&]() {
    pass.append_s += MsBetween(window_start, last_append) / 1000.0;
    const Clock::time_point f0 = Clock::now();
    dspot::StatusOr<dspot::StreamFlushReport> report = [&] {
      ScopedSpan span("stream.Flush");
      return api.Flush();
    }();
    if (!report.ok()) {
      sheet->Fail("Flush: " + report.status().ToString());
      return false;
    }
    // The window's forecasts are readable once every hot keyword's
    // forecast cell answers.
    bool readable = true;
    for (size_t k = 0; k < kHotKeywords && readable; ++k) {
      int64_t start = 0;
      readable = !engine.HasFit(k) || engine.ForecastInto(k, horizon, &start).ok();
    }
    const Clock::time_point f1 = Clock::now();
    if (!readable) sheet->Fail("published forecast not readable");
    pass.flush_ms.push_back(MsBetween(f0, f1));
    pass.flush_s += MsBetween(f0, f1) / 1000.0;
    if (report->cold_fits + report->warm_refits + report->escalations > 0) {
      pass.lag_ms.push_back(MsBetween(last_append, f1));
    }
    window_start = Clock::now();
    return true;
  };

  const Clock::time_point t0 = Clock::now();
  window_start = t0;
  size_t quiet = 0;
  for (const TickRecord& r : records) {
    const int64_t window = r.timestamp / kFlushEvery;
    if (window != window_tick && window_tick >= 0) {
      if (!flush()) return pass;
    }
    window_tick = window;
    dspot::Status status;
    if (sample && r.keyword >= kHotKeywords && quiet++ % kSampleEvery == 0) {
      const Clock::time_point a0 = Clock::now();
      status = api.AppendById(r.keyword, r.timestamp, r.count);
      last_append = Clock::now();
      pass.append_us.push_back(UsBetween(a0, last_append));
    } else {
      status = api.AppendById(r.keyword, r.timestamp, r.count);
      last_append = Clock::now();
    }
    ++pass.appends;
    if (!status.ok()) {
      sheet->Fail("AppendById: " + status.ToString());
      return pass;
    }
  }
  if (!flush()) return pass;
  pass.wall_s = SecondsSince(t0);
  pass.stats = engine.stats();
  pass.state = engine.EncodeState();
  return pass;
}

template <typename Api>
bool Intern(Api& api, size_t keywords, Sheet* sheet) {
  for (size_t i = 0; i < keywords; ++i) {
    auto id = api.EnsureKeyword(
        dspot::TickStreamKeywordName(static_cast<uint32_t>(i)));
    if (!id.ok() || *id != i) {
      sheet->Fail("EnsureKeyword failed");
      return false;
    }
  }
  return true;
}

struct Recovery {
  double seconds = 0.0;
  dspot::RecoveryReport report;
};

/// Reopens `dir` (full-log replay) and checks the recovered state is
/// bit-identical to the live engine's.
Recovery Recover(const std::string& dir, const std::vector<uint8_t>& live,
                 Sheet* sheet) {
  Recovery r;
  const Clock::time_point t0 = Clock::now();
  auto reopened = [&] {
    ScopedSpan span("durable.Open.recover");
    return DurableEngine::Open(dir, WalOptions());
  }();
  r.seconds = SecondsSince(t0);
  ++sheet->attempted;
  if (!reopened.ok()) {
    sheet->Fail("recovery: " + reopened.status().ToString());
    return r;
  }
  r.report = (*reopened)->recovery();
  const std::vector<uint8_t> state = (*reopened)->engine().EncodeState();
  if (state.size() != live.size() ||
      std::memcmp(state.data(), live.data(), live.size()) != 0) {
    sheet->Fail("recovered engine state differs from the live engine's");
  }
  return r;
}

}  // namespace

void RunStreamIngest(const RunConfig& config, Sheet* sheet) {
  const std::string base = config.out_dir + "/scratch-" + config.workload;

  // Each pass sets up from scratch (generate the stream, open a fresh WAL
  // directory, intern every keyword), replays the stream, and recovers.
  // Passes repeat until --seconds is used up; set-up reports the median.
  std::vector<double> setup_s, recovery_s, lag_ms, flush_ms;
  double append_s = 0.0, flush_s = 0.0;
  size_t appends = 0;
  Pass last;
  const Clock::time_point t0 = Clock::now();
  for (size_t p = 0; p < kMinPasses || SecondsSince(t0) < config.seconds;
       ++p) {
    const std::string dir = base + "/wal" + std::to_string(p);
    const Clock::time_point s0 = Clock::now();
    // Each pass replays a different stream drawn from the seed, so a run
    // averages over several streams' worth of fits.
    const std::vector<TickRecord> records =
        dspot::GenerateTickStream(StreamConfig(PassSeed(config.seed, p)));
    if (!FreshDir(dir)) {
      sheet->Fail("cannot create " + dir);
      return;
    }
    auto durable = DurableEngine::Open(dir, WalOptions());
    if (!durable.ok()) {
      sheet->Fail("open: " + durable.status().ToString());
      return;
    }
    if (!Intern(**durable, kKeywords, sheet)) return;
    setup_s.push_back(SecondsSince(s0));

    last = Replay(records, **durable, (*durable)->engine(), false, sheet);
    sheet->attempted += last.appends + last.flush_ms.size();
    durable->reset();
    if (!sheet->correct) return;
    append_s += last.append_s;
    flush_s += last.flush_s;
    appends += last.appends;
    lag_ms.insert(lag_ms.end(), last.lag_ms.begin(), last.lag_ms.end());
    flush_ms.insert(flush_ms.end(), last.flush_ms.begin(),
                    last.flush_ms.end());
    recovery_s.push_back(Recover(dir, last.state, sheet).seconds);
    RemoveDir(dir);
  }

  const double ticks_per_s = static_cast<double>(appends) / (append_s + flush_s);
  ReportEndToEnd(sheet, Median(setup_s), Median(lag_ms), ticks_per_s);
  sheet->named.push_back({"ingest_ticks_per_s", ticks_per_s, "1/s"});
  sheet->named.push_back({"publish_lag_p50_ms", Median(lag_ms), "ms"});
  sheet->named.push_back({"publish_lag_p90_ms", Quantile(lag_ms, 0.9), "ms"});
  sheet->named.push_back({"recovery_s", Median(recovery_s), "s"});
  sheet->Note("passes: " + std::to_string(setup_s.size()) +
              ", appends per pass: " + std::to_string(last.appends) +
              ", publishing flushes: " + std::to_string(lag_ms.size()));
  if (!config.trace) return;

  // Traced: one plain StreamEngine pass (the append baseline), then one
  // durable pass and its recovery with dspot_obs and spans armed, both on
  // the last untraced pass's stream.
  const std::vector<TickRecord> records = dspot::GenerateTickStream(
      StreamConfig(PassSeed(config.seed, setup_s.size() - 1)));
  auto& layer = sheet->layer;
  {
    StreamEngine plain(EngineOptions());
    if (!Intern(plain, kKeywords, sheet)) return;
    const Pass p = Replay(records, plain, plain, true, sheet);
    layer["stream.append_us_p50"] = Median(p.append_us);
    layer["stream.append_us_p99"] = Quantile(p.append_us, 0.99);
    if (p.state != last.state) {
      sheet->Fail("plain engine state differs from the WAL-backed engine's");
    }
  }
  const std::string dir = base + "/wal-traced";
  if (!FreshDir(dir)) return;
  auto durable = DurableEngine::Open(dir, WalOptions());
  if (!durable.ok() || !Intern(**durable, kKeywords, sheet)) {
    sheet->Fail("traced open/intern failed");
    return;
  }
  ArmObs(true);
  SpanRecorder::Instance().Enable();
  const Pass traced = Replay(records, **durable, (*durable)->engine(), true,
                             sheet);
  durable->reset();
  layer["stream.flush_ms_p50"] = Median(traced.flush_ms);
  layer["stream.cold_fits"] = static_cast<double>(traced.stats.cold_fits);
  layer["stream.warm_refits"] = static_cast<double>(traced.stats.warm_refits);
  layer["stream.escalations"] = static_cast<double>(traced.stats.escalations);
  layer["stream.peak_buffer_bytes"] =
      static_cast<double>(traced.stats.peak_buffer_bytes);
  layer["stream.unattributed_share"] =
      1.0 - (traced.append_s + traced.flush_s) / traced.wall_s;
  layer["durable.wal_append_us_p50"] =
      Median(traced.append_us) - layer["stream.append_us_p50"];
  layer["durable.wal_append_us_p99"] =
      Quantile(traced.append_us, 0.99) - layer["stream.append_us_p99"];
  layer["durable.wal_records"] = static_cast<double>(ObsCounter("wal.records"));
  layer["durable.wal_bytes"] = static_cast<double>(ObsCounter("wal.bytes"));
  layer["durable.wal_syncs"] = static_cast<double>(ObsCounter("wal.syncs"));
  layer["optimize.lm_solves"] = static_cast<double>(ObsCounter("lm.solves"));
  layer["optimize.lm_iterations"] =
      static_cast<double>(ObsCounter("lm.iterations"));
  layer["trace.overhead_ms"] = Median(traced.lag_ms) - Median(lag_ms);
  layer["trace.unattributed_share"] = layer["stream.unattributed_share"];

  ArmObs(true);  // reset, so the replayed flushes are counted alone
  const Recovery recovery = Recover(dir, traced.state, sheet);
  const double replay_flush_s = ObsHistSumMs("stream.flush") / 1000.0;
  layer["durable.recovery_flush_s"] = replay_flush_s;
  layer["durable.recovery_log_s"] = recovery.seconds - replay_flush_s;
  layer["durable.replayed_appends"] =
      static_cast<double>(recovery.report.replayed_appends);
  layer["durable.replayed_flushes"] =
      static_cast<double>(recovery.report.replayed_flushes);
  ArmObs(false);
  RemoveDir(dir);
}

}  // namespace perfbench
