// The two serving workloads, both open loop: requests are generated before
// the timed phase with Poisson arrival times, submitted when due whether or
// not earlier ones finished, and timed from their due time.
//
//  serve_mixed    engine-direct (ServeEngine::SubmitWithCallback), ~90/8/2
//                 forecast/outlier/refit over 10x more keywords than the
//                 registry keeps resident, with a spill directory.
//  serve_hot_tcp  4 loopback connections to an in-process NetServer,
//                 ~95/5 forecast/outlier, every keyword resident and warm.
//
// Each runs a reference rate below the knee, then a fixed rate ladder
// above it; goodput is the good-reply rate of the highest ladder step that
// meets the forecast p99 limit with no failed request and a generator that
// kept to its schedule. The ladder stops at the first step that misses.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/simulate.h"
#include "serve/model_registry.h"
#include "serve/net_server.h"
#include "serve/protocol.h"
#include "serve/serve_engine.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dspot::ModelRegistry;
using dspot::RegistryOptions;
using dspot::ServedModel;
using dspot::ServeEngine;
using dspot::ServeOp;
using dspot::ServeOptions;
using dspot::ServeReply;
using dspot::ServeRequest;

constexpr uint64_t kFitTicks = 64;
constexpr uint64_t kHorizon = 8;
constexpr size_t kOutlierTicks = 32;
constexpr size_t kConnections = 4;
/// A step whose generator submitted its p99 request later than this after
/// its due time did not keep to its schedule; its latencies are not used.
constexpr double kMaxLatenessMs = 20.0;
/// Fewest forecasts in one window of a windowed quantile.
constexpr size_t kMinWindow = 200;
/// Requests per step whose spans go into the Chrome trace.
constexpr size_t kMaxTracedRequests = 20000;
/// No reply for this long means the server is stuck: the step fails.
constexpr double kStallSeconds = 30.0;

/// The fixed parameters of one serving workload. Rates and limits were
/// chosen from measurements on a 4-core VM; see perfbench/README.md.
struct ServeShape {
  size_t keywords;
  /// Registry budget as a share of the bytes of all primed models.
  double resident_share;
  int forecast_pct;
  int outlier_pct;  ///< the rest are warm refits
  double reference_rps;
  std::vector<double> ladder_rps;
  double forecast_p99_limit_ms;
  bool tcp;
};

const ServeShape& MixedShape() {
  static const ServeShape shape{2000, 0.1, 90, 8, 50.0,
                                {875.0, 1750.0, 3500.0, 7000.0},
                                400.0, false};
  return shape;
}

const ServeShape& HotShape() {
  static const ServeShape shape{512, 2.0, 95, 5, 20000.0,
                                {30000.0, 60000.0},
                                20.0, true};
  return shape;
}

std::string KeywordName(size_t i) { return "kw" + std::to_string(i); }

/// A synthetic fitted model: serving is measured, not fitting, so models
/// are built directly with seed-drawn parameters.
ServedModel MakeModel(size_t i, uint64_t seed) {
  dspot::Random rng = dspot::Random(seed).Child(i);
  ServedModel model;
  model.keyword = KeywordName(i);
  model.params.population = rng.Uniform(600.0, 1200.0);
  model.params.beta = rng.Uniform(0.12, 0.4);
  model.params.delta = 0.11;
  model.params.gamma = 0.07;
  model.params.i0 = 2.0;
  model.params.growth_rate = rng.Uniform(0.3, 0.9);
  model.params.growth_start = 24 + static_cast<size_t>(rng.UniformInt(0, 15));
  dspot::Shock shock;
  shock.period = 7 + static_cast<size_t>(rng.UniformInt(0, 4));
  shock.start = 3 + static_cast<size_t>(rng.UniformInt(0, 3));
  shock.width = 2;
  shock.base_strength = rng.Uniform(1.2, 6.0);
  shock.global_strengths = {1.4, 1.6, 1.4};
  model.shocks.push_back(shock);
  model.fit_ticks = kFitTicks;
  model.rmse = rng.Uniform(2.0, 12.0);
  model.cost_bits = rng.Uniform(700.0, 1700.0);
  return model;
}

/// Observed activity for keyword `i`: its model's own curve over `n`
/// ticks plus noise, so refits and outlier scores see data their model
/// explains (as fresh observations of a served keyword would be).
std::vector<double> ActivitySeries(size_t i, uint64_t seed, size_t n,
                                   dspot::Random* rng) {
  const dspot::Series curve =
      dspot::SimulateGlobal(MakeModel(i, seed).ToSnapshot().params, 0, n);
  std::vector<double> values(n);
  for (size_t t = 0; t < n; ++t) {
    values[t] = std::max(0.0, curve[t] + rng->Gaussian(0.0, 2.0));
  }
  return values;
}

/// One step of the open loop: its requests and their due times (seconds
/// after the step starts), all drawn before the timed phase.
struct Step {
  double rate = 0.0;
  uint64_t first_id = 1;  ///< request ids are first_id + index
  std::vector<double> due_s;
  std::vector<ServeOp> ops;
  std::vector<uint32_t> want;  ///< expected reply value count
  /// The requests themselves, kept for engine-direct steps and for the
  /// reference step (the serial replay re-runs it).
  std::vector<ServeRequest> requests;
  /// TCP: every frame back to back; frame i is wire[offsets[i],
  /// offsets[i + 1]).
  std::vector<uint8_t> wire;
  std::vector<size_t> offsets;
  size_t size() const { return due_s.size(); }
};

/// Appends `request`'s length-prefixed frame to the step's wire buffer.
void AppendFrame(const ServeRequest& request, Step* step) {
  const std::vector<uint8_t> payload = dspot::EncodeRequestPayload(request);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int b = 0; b < 4; ++b) step->wire.push_back((len >> (8 * b)) & 0xFF);
  step->wire.insert(step->wire.end(), payload.begin(), payload.end());
  step->offsets.push_back(step->wire.size());
}

Step MakeStep(const ServeShape& shape, double rate, double seconds,
              uint64_t seed, dspot::Random* rng, uint64_t first_id,
              bool keep_requests) {
  Step step;
  step.rate = rate;
  step.first_id = first_id;
  if (shape.tcp) step.offsets.push_back(0);
  for (double t = rng->Exponential(rate); t < seconds;
       t += rng->Exponential(rate)) {
    ServeRequest request;
    request.id = first_id + step.size();
    const size_t keyword =
        static_cast<size_t>(rng->UniformInt(0, shape.keywords - 1));
    request.keyword = KeywordName(keyword);
    const int roll = static_cast<int>(rng->UniformInt(0, 99));
    if (roll < shape.forecast_pct) {
      request.op = ServeOp::kForecast;
      request.horizon = kHorizon;
    } else if (roll < shape.forecast_pct + shape.outlier_pct) {
      request.op = ServeOp::kOutlierScore;
      request.values = ActivitySeries(keyword, seed, kOutlierTicks, rng);
    } else {
      // More ticks than the stored fit, so the refit warm-starts.
      request.op = ServeOp::kRefit;
      request.values = ActivitySeries(keyword, seed, kFitTicks + 8, rng);
    }
    if (shape.tcp) AppendFrame(request, &step);
    step.due_s.push_back(t);
    step.ops.push_back(request.op);
    step.want.push_back(static_cast<uint32_t>(
        request.op == ServeOp::kForecast ? request.horizon
        : request.op == ServeOp::kOutlierScore ? request.values.size()
                                               : 0));
    if (keep_requests) step.requests.push_back(std::move(request));
  }
  return step;
}

/// A reply is well formed when it is OK and shaped like its request.
bool WellFormed(const Step& step, size_t i, const ServeReply& reply) {
  if (!reply.status.ok() || reply.id != step.first_id + i) return false;
  if (reply.values.size() != step.want[i]) return false;
  for (double v : reply.values) {
    if (!std::isfinite(v)) return false;
  }
  return std::isfinite(reply.rmse) && reply.rmse >= 0.0;
}

/// What happened to each request of a step, filled by whichever thread
/// sees its reply.
struct Slots {
  explicit Slots(const Step& step, bool keep)
      : sent(step.size()),
        done(step.size()),
        good(step.size(), 0),
        payloads(keep ? step.size() : 0) {}
  std::vector<Clock::time_point> sent;
  std::vector<Clock::time_point> done;
  std::vector<uint8_t> good;
  std::vector<std::vector<uint8_t>> payloads;  ///< reply bytes, if kept
  std::atomic<size_t> completed{0};
};

struct StepResult {
  double rate = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<double> latency_ms[4];  ///< by ServeOp
  double late_p99_ms = 0.0;
  double late_max_ms = 0.0;
  double late_sum_ms = 0.0;
  double goodput = 0.0;     ///< good replies per second of schedule
  bool valid = false;       ///< generator kept to its schedule
  uint32_t crc = 0;         ///< CRC-32 of reply bytes in id order, if kept
  dspot::ServeStats engine;
  dspot::NetServerStats net;
  /// Forecast latency quantile `q` as the median of that quantile over
  /// consecutive windows of forecasts, so a scheduler stall on a shared VM
  /// moves one window rather than the whole step, while a growing backlog
  /// still moves most of them. A window holds at least kMinWindow forecasts
  /// and ten beyond its quantile; steps with fewer than two windows report
  /// the plain quantile.
  double ForecastQ(double q) const {
    const auto& all = latency_ms[static_cast<int>(ServeOp::kForecast)];
    if (q >= 1.0) return Quantile(all, q);
    const size_t window = std::max<size_t>(
        kMinWindow, static_cast<size_t>(std::ceil(10.0 / (1.0 - q))));
    if (all.size() < 2 * window) return Quantile(all, q);
    std::vector<double> windows;
    for (size_t w = 0; w + window <= all.size(); w += window) {
      windows.push_back(Quantile(
          std::vector<double>(all.begin() + w, all.begin() + w + window), q));
    }
    return Median(windows);
  }
};

/// The due time of a request `offset_s` seconds into a step started at t0.
Clock::time_point DueAt(Clock::time_point t0, double offset_s) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(offset_s));
}

void Complete(const Step& step, size_t i, const ServeReply& reply,
              Slots* slots) {
  slots->done[i] = Clock::now();
  slots->good[i] = WellFormed(step, i, reply) ? 1 : 0;
  if (!slots->payloads.empty()) {
    slots->payloads[i] = dspot::EncodeReplyPayload(reply);
  }
  slots->completed.fetch_add(1, std::memory_order_release);
}

/// Waits for every reply; false when the server stalls.
bool AwaitReplies(const Slots& slots, size_t n) {
  size_t last = 0;
  Clock::time_point progress = Clock::now();
  for (;;) {
    const size_t now = slots.completed.load(std::memory_order_acquire);
    if (now >= n) return true;
    if (now != last) {
      last = now;
      progress = Clock::now();
    } else if (SecondsSince(progress) > kStallSeconds) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

StepResult Summarize(const Step& step, Clock::time_point t0,
                     const Slots& slots, bool all_replied) {
  StepResult r;
  r.rate = step.rate;
  r.attempted = step.size();
  std::vector<double> late;
  late.reserve(r.attempted);
  size_t good = 0;
  for (size_t i = 0; i < r.attempted; ++i) {
    const Clock::time_point due = DueAt(t0, step.due_s[i]);
    late.push_back(MsBetween(due, slots.sent[i]));
    r.late_sum_ms += late.back();
    if (!all_replied && slots.done[i] == Clock::time_point()) {
      ++r.failed;
      continue;
    }
    r.latency_ms[static_cast<int>(step.ops[i])].push_back(
        MsBetween(due, slots.done[i]));
    if (slots.good[i]) {
      ++good;
    } else {
      ++r.failed;
    }
  }
  r.late_p99_ms = Quantile(late, 0.99);
  r.late_max_ms = Max(late);
  r.valid = r.late_p99_ms <= kMaxLatenessMs;
  const double span_s = step.due_s.empty() ? 0.0 : step.due_s.back();
  r.goodput = span_s > 0.0 ? static_cast<double>(good) / span_s : 0.0;
  if (!slots.payloads.empty()) {
    std::vector<uint8_t> all;
    for (const auto& p : slots.payloads) {
      all.insert(all.end(), p.begin(), p.end());
    }
    r.crc = dspot::Crc32(all.data(), all.size());
  }
  return r;
}

/// Records the benchmark's spans for a finished step: one per request
/// (due -> reply) with the submit call as its child, for at most
/// kMaxTracedRequests requests evenly spread over the step.
void RecordRequestSpans(const Step& step, Clock::time_point t0,
                        const Slots& slots) {
  SpanRecorder& recorder = SpanRecorder::Instance();
  if (!recorder.enabled()) return;
  const size_t stride = std::max<size_t>(1, step.size() / kMaxTracedRequests);
  for (size_t i = 0; i < step.size(); i += stride) {
    const Clock::time_point due = DueAt(t0, step.due_s[i]);
    const uint64_t id = step.first_id + i;
    const uint64_t parent = recorder.NextId();
    recorder.Record(step.wire.empty() ? "serve.SubmitWithCallback"
                                        : "serve.net.send",
                    due, slots.sent[i], parent, id);
    recorder.RecordWithId(parent, dspot::ServeOpName(step.ops[i]),
                          due, slots.done[i], 0, id);
  }
}

ServeOptions EngineOptions(size_t workers) {
  ServeOptions options;
  options.num_threads = workers;
  // Never shed: a shed request is a failure, and the ladder finds the
  // knee from latency instead.
  options.queue_cap = 1u << 22;
  // Refits re-run the optimizer; trim the search so the 2% refit share
  // costs milliseconds, as in bench_serve.
  options.fit.max_outer_rounds = 2;
  options.fit.max_shocks_per_keyword = 2;
  return options;
}

void SleepUntilDue(Clock::time_point due) {
  if (Clock::now() < due) std::this_thread::sleep_until(due);
}

/// Engine-direct step: this thread is the generator; replies arrive on
/// engine threads through the callback.
StepResult RunDirectStep(ModelRegistry* registry, size_t workers,
                         const Step& step, bool keep_payloads) {
  Slots slots(step, keep_payloads);
  ServeEngine engine(registry, EngineOptions(workers));
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < step.size(); ++i) {
    SleepUntilDue(DueAt(t0, step.due_s[i]));
    slots.sent[i] = Clock::now();
    engine.SubmitWithCallback(step.requests[i],
                              [&step, &slots, i](ServeReply reply) {
                                Complete(step, i, reply, &slots);
                              });
  }
  const bool all = AwaitReplies(slots, step.size());
  engine.Stop();
  StepResult r = Summarize(step, t0, slots, all);
  r.engine = engine.stats();
  RecordRequestSpans(step, t0, slots);
  return r;
}

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr))) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// Reads replies from every connection until all `n` arrived, a socket
/// fails, or the server stalls.
void ReceiveReplies(const std::vector<int>& fds, const Step& step,
                    Slots* slots) {
  std::vector<dspot::FrameAssembler> assemblers;
  for (size_t c = 0; c < fds.size(); ++c) {
    assemblers.emplace_back("client conn " + std::to_string(c));
  }
  std::vector<pollfd> polls;
  for (int fd : fds) polls.push_back({fd, POLLIN, 0});
  std::vector<uint8_t> payload;
  uint8_t chunk[65536];
  Clock::time_point progress = Clock::now();
  while (slots->completed.load(std::memory_order_relaxed) < step.size()) {
    const int ready = ::poll(polls.data(), polls.size(), 100);
    if (ready < 0 && errno != EINTR) return;
    if (ready <= 0) {
      if (SecondsSince(progress) > kStallSeconds) return;
      continue;
    }
    for (size_t c = 0; c < polls.size(); ++c) {
      if ((polls[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::recv(polls[c].fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;
      }
      progress = Clock::now();
      assemblers[c].Append(chunk, static_cast<size_t>(n));
      for (;;) {
        dspot::StatusOr<bool> have = assemblers[c].Next(&payload);
        if (!have.ok()) return;
        if (!*have) break;
        auto reply = dspot::DecodeReplyPayload(payload.data(), payload.size(),
                                               "reply");
        if (!reply.ok()) return;
        if (reply->id < step.first_id ||
            reply->id - step.first_id >= step.size()) {
          return;
        }
        Complete(step, reply->id - step.first_id, *reply, slots);
      }
    }
  }
}

/// TCP step: a NetServer on its own thread; this thread sends each frame
/// when due (round-robin over the connections) and one thread receives.
StepResult RunTcpStep(ModelRegistry* registry, size_t workers,
                      const Step& step, bool keep_payloads, Sheet* sheet) {
  Slots slots(step, keep_payloads);
  ServeEngine engine(registry, EngineOptions(workers));
  dspot::NetServer server(&engine, dspot::NetServerOptions());
  StepResult r;
  if (!server.Start().ok()) {
    sheet->Fail("NetServer::Start failed");
    return r;
  }
  std::thread loop([&server] { server.Run(); });
  std::vector<int> fds;
  for (size_t c = 0; c < kConnections; ++c) {
    const int fd = Connect(server.port());
    if (fd >= 0) fds.push_back(fd);
  }
  bool all = false;
  if (fds.size() == kConnections) {
    std::thread receiver(
        [&fds, &step, &slots] { ReceiveReplies(fds, step, &slots); });
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    bool sent_all = true;
    for (size_t i = 0; i < step.size() && sent_all; ++i) {
      SleepUntilDue(DueAt(t0, step.due_s[i]));
      slots.sent[i] = Clock::now();
      sent_all = SendAll(fds[i % kConnections],
                         step.wire.data() + step.offsets[i],
                         step.offsets[i + 1] - step.offsets[i]);
    }
    receiver.join();
    all = slots.completed.load() == step.size();
    r = Summarize(step, t0, slots, all);
    RecordRequestSpans(step, t0, slots);
  } else {
    sheet->Fail("could not connect to the NetServer");
  }
  for (int fd : fds) ::close(fd);
  server.Shutdown();
  loop.join();
  engine.Stop();
  r.engine = engine.stats();
  r.net = server.stats();
  if (!all) sheet->Fail("TCP step at " + std::to_string(step.rate) +
                        " req/s lost replies");
  return r;
}

RegistryOptions RegistryFor(const ServeShape& shape, const std::string& dir,
                            uint64_t seed) {
  RegistryOptions options;
  options.num_shards = 16;
  options.spill_dir = dir;
  const double bytes = static_cast<double>(MakeModel(0, seed).ResidentBytes());
  options.max_resident_bytes = static_cast<uint64_t>(
      shape.resident_share * bytes * static_cast<double>(shape.keywords));
  return options;
}

/// Puts every model into a registry over a fresh spill directory, then
/// reads each once when the budget holds them all (a warm cache).
std::unique_ptr<ModelRegistry> Prime(const ServeShape& shape,
                                     const std::string& dir, uint64_t seed,
                                     Sheet* sheet) {
  if (!FreshDir(dir)) {
    sheet->Fail("cannot create " + dir);
    return nullptr;
  }
  auto registry =
      std::make_unique<ModelRegistry>(RegistryFor(shape, dir, seed));
  for (size_t i = 0; i < shape.keywords; ++i) {
    const dspot::Status put = registry->Put(MakeModel(i, seed));
    if (!put.ok()) {
      sheet->Fail("prime Put: " + put.ToString());
      return nullptr;
    }
  }
  if (shape.resident_share >= 1.0) {
    for (size_t i = 0; i < shape.keywords; ++i) {
      (void)registry->Get(KeywordName(i));
    }
  }
  return registry;
}

StepResult RunStep(const ServeShape& shape, ModelRegistry* registry,
                   const Step& step, bool keep_payloads, Sheet* sheet) {
  StepResult r = shape.tcp
                     ? RunTcpStep(registry, kServeWorkers, step, keep_payloads,
                                  sheet)
                     : RunDirectStep(registry, kServeWorkers, step,
                                     keep_payloads);
  sheet->attempted += r.attempted;
  sheet->failed += r.failed;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%6.0f req/s: %6zu sent %6zu ok %3zu failed | forecast p50 "
                "%7.3f ms p99 %8.3f ms | generator late p99 %.3f ms max "
                "%.3f ms%s",
                r.rate, r.attempted, r.attempted - r.failed, r.failed,
                r.ForecastQ(0.5),
                r.ForecastQ(0.99), r.late_p99_ms, r.late_max_ms,
                r.valid ? "" : " (fell behind: invalid)");
  sheet->Note(line);
  return r;
}

/// Average microseconds per call of `fn` over `n` calls.
template <typename Fn>
double MicrosPerCall(size_t n, Fn fn) {
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < n; ++i) fn(i);
  return UsBetween(t0, Clock::now()) / static_cast<double>(n);
}

/// Direct registry, snapshot and protocol timings on `registry` (primed
/// like the measured one) and a second registry over the same spill
/// directory with nothing resident, so every Get reloads.
void LayerMicrobench(const ServeShape& shape, ModelRegistry* registry,
                     const std::string& dir, uint64_t seed, Sheet* sheet) {
  auto& layer = sheet->layer;
  const size_t n = std::min<size_t>(shape.keywords, 400);
  size_t hit = 0;
  while (hit + 1 < shape.keywords && !registry->Resident(KeywordName(hit))) {
    ++hit;
  }
  layer["serve.registry.get_hit_us"] = MicrosPerCall(2000, [&](size_t) {
    ScopedSpan span("serve.registry.Get.hit");
    (void)registry->Get(KeywordName(hit));
  });
  {
    ModelRegistry cold(RegistryFor(shape, dir, seed));
    layer["serve.registry.get_reload_us"] = MicrosPerCall(n, [&](size_t i) {
      ScopedSpan span("serve.registry.Get.reload");
      if (!cold.Get(KeywordName(i)).ok()) sheet->Fail("reload Get failed");
    });
  }
  layer["serve.registry.put_us"] = MicrosPerCall(n, [&](size_t i) {
    ScopedSpan span("serve.registry.Put");
    if (!registry->Put(MakeModel(i, seed)).ok()) sheet->Fail("Put failed");
  });
  const ServedModel model = MakeModel(0, seed);
  layer["snapshot.encode_us"] = MicrosPerCall(2000, [&](size_t) {
    (void)dspot::EncodeSnapshotFile(model.ToSnapshot());
  });
  const std::string path = registry->SpillPath(model.keyword);
  layer["snapshot.decode_us"] = MicrosPerCall(2000, [&](size_t) {
    if (!dspot::LoadSnapshot(path).ok()) sheet->Fail("LoadSnapshot failed");
  });
  ServeRequest request;
  request.id = 1;
  request.keyword = model.keyword;
  request.horizon = kHorizon;
  const std::vector<uint8_t> request_bytes = dspot::EncodeRequestPayload(request);
  ServeReply reply;
  reply.id = 1;
  reply.values.assign(kHorizon, 42.0);
  layer["serve.protocol.decode_us"] = MicrosPerCall(20000, [&](size_t) {
    (void)dspot::DecodeRequestPayload(request_bytes.data(),
                                      request_bytes.size(), "bench");
  });
  layer["serve.protocol.encode_us"] = MicrosPerCall(20000, [&](size_t) {
    (void)dspot::EncodeReplyPayload(reply);
  });
}

/// Replays the reference step's requests one at a time through a 1-thread
/// engine over a freshly primed registry and returns the reply CRC — the
/// serve determinism contract says it must match the concurrent run.
uint32_t SerialReplayCrc(const ServeShape& shape, const Step& step,
                         const std::string& dir, uint64_t seed, Sheet* sheet) {
  const std::unique_ptr<ModelRegistry> registry =
      Prime(shape, dir, seed, sheet);
  if (registry == nullptr) return 0;
  ServeEngine engine(registry.get(), EngineOptions(1));
  std::vector<uint8_t> all;
  for (const ServeRequest& request : step.requests) {
    const std::vector<uint8_t> bytes =
        dspot::EncodeReplyPayload(engine.Call(request));
    all.insert(all.end(), bytes.begin(), bytes.end());
  }
  engine.Stop();
  return dspot::Crc32(all.data(), all.size());
}

void RunServe(const ServeShape& shape, const RunConfig& config,
              Sheet* sheet) {
  const std::string base = config.out_dir + "/scratch-" + config.workload;
  const double ladder_s =
      std::max(1.0, 0.5 * config.seconds /
                        static_cast<double>(shape.ladder_rps.size()));
  const double reference_s = std::max(2.0, 0.5 * config.seconds);

  // Set-up, three times (the median is reported): prime the registry over
  // a fresh spill directory, warm it, and draw every step's requests.
  std::vector<double> setup_s;
  std::unique_ptr<ModelRegistry> registry;
  std::vector<Step> steps;
  for (int rep = 0; rep < 3; ++rep) {
    registry.reset();
    const std::string dir = base + "/spill" + std::to_string(rep);
    const Clock::time_point s0 = Clock::now();
    registry = Prime(shape, dir, config.seed, sheet);
    if (registry == nullptr) return;
    dspot::Random rng(config.seed * 0x9e3779b97f4a7c15ull + 17);
    steps.clear();
    uint64_t next_id = 1;
    steps.push_back(
        MakeStep(shape, shape.reference_rps, reference_s, config.seed,
                           &rng, next_id, true));
    for (double rate : shape.ladder_rps) {
      next_id += steps.back().size();
      steps.push_back(
          MakeStep(shape, rate, ladder_s, config.seed, &rng, next_id,
                   !shape.tcp));
    }
    setup_s.push_back(SecondsSince(s0));
    if (rep < 2) {
      registry.reset();
      RemoveDir(dir);
    }
  }

  const StepResult reference =
      RunStep(shape, registry.get(), steps[0], false, sheet);
  if (!reference.valid) {
    sheet->Fail("generator fell behind at the reference rate");
  }
  double goodput = reference.goodput;
  for (size_t s = 1; s < steps.size(); ++s) {
    const StepResult r = RunStep(shape, registry.get(), steps[s], false, sheet);
    if (!r.valid || r.failed > 0 ||
        r.ForecastQ(0.99) > shape.forecast_p99_limit_ms) {
      break;
    }
    goodput = r.goodput;
  }
  if (reference.failed > 0) sheet->Fail("failed replies at the reference rate");

  const double p50 = reference.ForecastQ(0.5);
  const double p99 = reference.ForecastQ(0.99);
  ReportEndToEnd(sheet, Median(setup_s), p50, goodput);
  sheet->named.push_back({"forecast_p50_ms", p50, "ms"});
  sheet->named.push_back(
      {"forecast_p90_ms", reference.ForecastQ(0.9), "ms"});
  sheet->named.push_back({"forecast_p99_ms", p99, "ms"});
  sheet->named.push_back({"goodput_rps", goodput, "req/s"});
  if (!shape.tcp) {
    sheet->named.push_back(
        {"refit_p90_ms",
         Quantile(reference.latency_ms[static_cast<int>(ServeOp::kRefit)], 0.9),
         "ms"});
  }
  sheet->Note("forecast p99 limit " + std::to_string(shape.forecast_p99_limit_ms) +
              " ms; reference-rate forecasts: " +
              std::to_string(reference.latency_ms[static_cast<int>(
                                 ServeOp::kForecast)].size()));
  if (!config.trace) return;

  // Traced: the reference step again on a freshly primed registry, with
  // dspot_obs and the benchmark's spans armed and the reply bytes kept.
  const std::string trace_dir = base + "/spill-traced";
  registry.reset();
  RemoveDir(base + "/spill2");
  registry = Prime(shape, trace_dir, config.seed, sheet);
  if (registry == nullptr) return;
  ArmObs(true);
  SpanRecorder::Instance().Enable();
  const dspot::RegistryStats tb = registry->stats();
  const Clock::time_point w0 = Clock::now();
  const StepResult traced = RunStep(shape, registry.get(), steps[0], true,
                                    sheet);
  const double wall_ms = MsBetween(w0, Clock::now());
  const dspot::RegistryStats ta = registry->stats();
  auto& layer = sheet->layer;
  const double f_ms = ObsHistMedianMs("serve.latency.forecast_ms");
  layer["serve.engine.service_ms.forecast"] = f_ms;
  layer["serve.engine.service_ms.outlier"] =
      ObsHistMedianMs("serve.latency.outlier_ms");
  layer["serve.engine.service_ms.refit"] =
      ObsHistMedianMs("serve.latency.refit_ms");
  layer["serve.engine.queue_wait_ms.forecast_p50"] =
      traced.ForecastQ(0.5) - f_ms;
  layer["serve.engine.queue_wait_ms.forecast_p99"] =
      traced.ForecastQ(0.99) - f_ms;
  const double service_ms = ObsHistSumMs("serve.latency.forecast_ms") +
                            ObsHistSumMs("serve.latency.outlier_ms") +
                            ObsHistSumMs("serve.latency.refit_ms");
  layer["serve.engine.busy_share"] =
      service_ms / (static_cast<double>(kServeWorkers) * wall_ms);
  layer["serve.engine.batches"] = static_cast<double>(traced.engine.batches);
  layer["serve.engine.mean_batch_size"] =
      traced.engine.batches == 0
          ? 0.0
          : static_cast<double>(traced.engine.completed) /
                static_cast<double>(traced.engine.batches);
  layer["serve.engine.max_queue_depth"] =
      static_cast<double>(traced.engine.max_queue_depth);
  layer["serve.engine.shed"] =
      static_cast<double>(traced.engine.admission_rejects);
  layer["serve.engine.deadline_expired"] =
      static_cast<double>(traced.engine.deadline_expired);
  const double gets = static_cast<double>((ta.hits - tb.hits) +
                                          (ta.misses - tb.misses));
  layer["serve.registry.hit_ratio"] =
      gets > 0.0 ? static_cast<double>(ta.hits - tb.hits) / gets : 0.0;
  layer["serve.registry.reloads"] = static_cast<double>(ta.reloads - tb.reloads);
  layer["serve.registry.evictions"] =
      static_cast<double>(ta.evictions - tb.evictions);
  layer["serve.registry.spills"] = static_cast<double>(ta.spills - tb.spills);
  // Each request's latency splits into generator lateness and engine
  // service (both measured) and the rest: queueing and batch waits, which
  // no layer probe measures today.
  double latency_sum = 0.0;
  for (const auto& v : traced.latency_ms) {
    for (double x : v) latency_sum += x;
  }
  layer["trace.unattributed_share"] =
      latency_sum > 0.0
          ? 1.0 - (service_ms + traced.late_sum_ms) / latency_sum
          : 0.0;
  layer["trace.overhead_ms"] = traced.ForecastQ(0.5) - p50;
  layer["optimize.lm_solves"] = static_cast<double>(ObsCounter("lm.solves"));
  layer["optimize.lm_iterations"] =
      static_cast<double>(ObsCounter("lm.iterations"));
  layer["core.shock_candidates"] =
      static_cast<double>(ObsCounter("global_fit.shock_candidates"));
  ArmObs(false);
  // What the transport adds: the reference schedule again in the other
  // mode, engine-direct for the TCP workload and over TCP for the other.
  Step other = steps[0];
  other.wire.clear();
  other.offsets.clear();
  if (!shape.tcp) {
    other.offsets.push_back(0);
    for (const ServeRequest& request : other.requests) {
      AppendFrame(request, &other);
    }
  }
  SpanRecorder::Instance().Disable();
  const StepResult o =
      shape.tcp ? RunDirectStep(registry.get(), kServeWorkers, other, false)
                : RunTcpStep(registry.get(), kServeWorkers, other, false,
                             sheet);
  SpanRecorder::Instance().Enable();
  sheet->attempted += o.attempted;
  sheet->failed += o.failed;
  const StepResult& tcp = shape.tcp ? traced : o;
  layer["serve.net.overhead_ms_p50"] =
      shape.tcp ? p50 - o.ForecastQ(0.5) : o.ForecastQ(0.5) - p50;
  layer["serve.net.bytes_in"] = static_cast<double>(tcp.net.bytes_in);
  layer["serve.net.bytes_out"] = static_cast<double>(tcp.net.bytes_out);
  layer["serve.net.backpressure_pauses"] =
      static_cast<double>(tcp.net.backpressure_pauses);
  LayerMicrobench(shape, registry.get(), trace_dir, config.seed, sheet);
  registry.reset();
  RemoveDir(trace_dir);

  const uint32_t serial_crc = SerialReplayCrc(
      shape, steps[0], base + "/spill-replay", config.seed, sheet);
  if (serial_crc != traced.crc) {
    sheet->Fail("reference-rate reply CRC differs from a serial replay");
  } else {
    sheet->Note("reference-rate replies match a serial 1-thread replay");
  }
}

}  // namespace

void RunServeMixed(const RunConfig& config, Sheet* sheet) {
  RunServe(MixedShape(), config, sheet);
}

void RunServeHotTcp(const RunConfig& config, Sheet* sheet) {
  RunServe(HotShape(), config, sheet);
}

}  // namespace perfbench
