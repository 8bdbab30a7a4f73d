// The TCP transport: frame reassembly at hostile byte boundaries, the
// tenant handshake codec, and the poll server end-to-end over loopback
// sockets — split writes, desync teardown isolation, connection caps,
// and graceful drain. The transport must never let one bad connection
// take down the process or another client's stream.

#include "serve/net_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/serve_engine.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace dspot {
namespace {

/// splitmix64 — deterministic "randomness" for the split fuzzers.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

ServeRequest MakeRequest(uint64_t id) {
  ServeRequest request;
  request.id = id;
  request.op = ServeOp::kForecast;
  request.keyword = "kw" + std::to_string(id % 7);
  request.horizon = 4 + id % 5;
  request.deadline_ms = 0.0;
  return request;
}

/// One frame's wire bytes: LE u32 length + payload.
std::vector<uint8_t> FrameBytes(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> wire;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  wire.push_back(static_cast<uint8_t>(len & 0xFF));
  wire.push_back(static_cast<uint8_t>((len >> 8) & 0xFF));
  wire.push_back(static_cast<uint8_t>((len >> 16) & 0xFF));
  wire.push_back(static_cast<uint8_t>((len >> 24) & 0xFF));
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

// ---------------------------------------------------------------------------
// FrameAssembler

TEST(FrameAssembler, ReassemblesFramesSplitAtEveryByte) {
  // A multi-frame stream fed one byte at a time must decode to exactly
  // the frames that were encoded.
  std::vector<uint8_t> stream;
  std::vector<std::vector<uint8_t>> expected;
  for (uint64_t id = 1; id <= 8; ++id) {
    expected.push_back(EncodeRequestPayload(MakeRequest(id)));
    const auto wire = FrameBytes(expected.back());
    stream.insert(stream.end(), wire.begin(), wire.end());
  }

  FrameAssembler assembler("test");
  std::vector<uint8_t> payload;
  std::vector<std::vector<uint8_t>> decoded;
  for (uint8_t byte : stream) {
    assembler.Append(&byte, 1);
    for (;;) {
      auto have = assembler.Next(&payload);
      ASSERT_TRUE(have.ok()) << have.status().ToString();
      if (!*have) break;
      decoded.push_back(payload);
    }
  }
  ASSERT_EQ(decoded.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(decoded[i], expected[i]) << "frame " << i;
  }
  EXPECT_EQ(assembler.buffered(), 0u);
  EXPECT_EQ(assembler.stream_offset(), stream.size());
}

TEST(FrameAssembler, ReassemblesFramesAcrossRandomSplits) {
  // 50 deterministic shatterings of the same stream, chunk sizes 1..17:
  // every one must reassemble to identical frames. This is the TCP
  // segmentation model — the peer controls where reads end.
  std::vector<uint8_t> stream;
  std::vector<std::vector<uint8_t>> expected;
  for (uint64_t id = 1; id <= 12; ++id) {
    ServeRequest request = MakeRequest(id);
    if (id % 3 == 0) {  // some bulky frames so splits land mid-payload
      request.op = ServeOp::kOutlierScore;
      request.values.assign(64, 1.25 * static_cast<double>(id));
    }
    expected.push_back(EncodeRequestPayload(request));
    const auto wire = FrameBytes(expected.back());
    stream.insert(stream.end(), wire.begin(), wire.end());
  }

  for (uint64_t round = 0; round < 50; ++round) {
    FrameAssembler assembler("test");
    std::vector<uint8_t> payload;
    std::vector<std::vector<uint8_t>> decoded;
    size_t pos = 0;
    uint64_t state = round * 1000003u + 17;
    while (pos < stream.size()) {
      state = Mix(state);
      const size_t n = std::min<size_t>(1 + state % 17, stream.size() - pos);
      assembler.Append(stream.data() + pos, n);
      pos += n;
      for (;;) {
        auto have = assembler.Next(&payload);
        ASSERT_TRUE(have.ok()) << have.status().ToString();
        if (!*have) break;
        decoded.push_back(payload);
      }
    }
    ASSERT_EQ(decoded.size(), expected.size()) << "round " << round;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(decoded[i], expected[i]) << "round " << round << " frame "
                                         << i;
    }
  }
}

TEST(FrameAssembler, TruncationIsIncompleteNeverAnError) {
  // Every proper prefix of a valid stream must report "need more bytes",
  // not an error — a slow peer is not a hostile peer.
  const auto payload_full = EncodeRequestPayload(MakeRequest(42));
  const auto wire = FrameBytes(payload_full);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameAssembler assembler("test");
    assembler.Append(wire.data(), cut);
    std::vector<uint8_t> payload;
    auto have = assembler.Next(&payload);
    ASSERT_TRUE(have.ok()) << "cut " << cut << ": "
                           << have.status().ToString();
    EXPECT_FALSE(*have) << "cut " << cut;
    EXPECT_EQ(assembler.buffered(), cut);
  }
}

TEST(FrameAssembler, OverCapLengthPoisonsWithLocatedDataLoss) {
  // A declared length past kServeMaxFrameBytes marks the stream
  // desynchronized: located DataLoss now, and the same error forever —
  // no later Append can resurrect a conn whose framing is lost.
  const auto good = FrameBytes(EncodeRequestPayload(MakeRequest(1)));
  FrameAssembler assembler("conn test-peer");
  assembler.Append(good.data(), good.size());
  std::vector<uint8_t> payload;
  auto have = assembler.Next(&payload);
  ASSERT_TRUE(have.ok());
  ASSERT_TRUE(*have);

  const uint32_t huge = kServeMaxFrameBytes + 1;
  uint8_t prefix[4] = {static_cast<uint8_t>(huge & 0xFF),
                       static_cast<uint8_t>((huge >> 8) & 0xFF),
                       static_cast<uint8_t>((huge >> 16) & 0xFF),
                       static_cast<uint8_t>((huge >> 24) & 0xFF)};
  assembler.Append(prefix, sizeof(prefix));
  auto bad = assembler.Next(&payload);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  // Located at the byte where framing desynchronized (after frame 1).
  EXPECT_NE(bad.status().message().find("conn test-peer"), std::string::npos)
      << bad.status().ToString();
  EXPECT_NE(
      bad.status().message().find("byte " + std::to_string(good.size())),
      std::string::npos)
      << bad.status().ToString();

  // Poisoned: more bytes never un-poison it.
  assembler.Append(good.data(), good.size());
  auto still_bad = assembler.Next(&payload);
  ASSERT_FALSE(still_bad.ok());
  EXPECT_EQ(still_bad.status().code(), StatusCode::kDataLoss);
}

TEST(FrameAssembler, BitFlippedPrefixesNeverHangOrOverrun) {
  // Flip each bit of each length prefix in a 4-frame stream. Decoding
  // must terminate (bounded work) in one of the legal outcomes: located
  // DataLoss, a decode-level rejection, or a short/garbled stream — and
  // never an unbounded wait or crash.
  std::vector<uint8_t> stream;
  std::vector<size_t> prefix_offsets;
  for (uint64_t id = 1; id <= 4; ++id) {
    prefix_offsets.push_back(stream.size());
    const auto wire = FrameBytes(EncodeRequestPayload(MakeRequest(id)));
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  for (size_t offset : prefix_offsets) {
    for (int bit = 0; bit < 32; ++bit) {
      std::vector<uint8_t> corrupt = stream;
      corrupt[offset + static_cast<size_t>(bit / 8)] ^=
          static_cast<uint8_t>(1u << (bit % 8));
      FrameAssembler assembler("test");
      assembler.Append(corrupt.data(), corrupt.size());
      std::vector<uint8_t> payload;
      // At most 5 frames can come out of a 4-frame stream whose lengths
      // shrank; the loop is bounded by construction.
      for (int frames = 0; frames < 8; ++frames) {
        auto have = assembler.Next(&payload);
        if (!have.ok()) {
          EXPECT_EQ(have.status().code(), StatusCode::kDataLoss);
          break;
        }
        if (!*have) break;  // incomplete: reader would wait for more bytes
        // A reassembled payload may no longer decode — that is the
        // transport's located-error teardown path, also legal.
        auto decoded =
            DecodeRequestPayload(payload.data(), payload.size(), "test");
        (void)decoded;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Deadline validation bugfix (wire-level)

TEST(ServeProtocol, DecodeRejectsNonFiniteAndNegativeDeadlines) {
  // Regression: these all decoded successfully before the fix — NaN and
  // -1 silently aliased "no deadline" through the `> 0` arming test and
  // +inf armed a deadline that could never expire.
  const double hostile[] = {std::nan(""), -1.0,
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::infinity()};
  for (double deadline : hostile) {
    ServeRequest request = MakeRequest(9);
    request.deadline_ms = deadline;
    const auto payload = EncodeRequestPayload(request);
    auto decoded = DecodeRequestPayload(payload.data(), payload.size(), "t");
    ASSERT_FALSE(decoded.ok()) << "deadline_ms " << deadline << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("deadline_ms"),
              std::string::npos)
        << decoded.status().ToString();
  }
  // The boundary values stay valid: 0 = no deadline, positive = armed.
  for (double deadline : {0.0, 1.5}) {
    ServeRequest request = MakeRequest(9);
    request.deadline_ms = deadline;
    const auto payload = EncodeRequestPayload(request);
    auto decoded = DecodeRequestPayload(payload.data(), payload.size(), "t");
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->deadline_ms, deadline);
  }
}

// ---------------------------------------------------------------------------
// Tenant handshake codec

TEST(ServeProtocol, TenantNameValidationSharedRule) {
  EXPECT_TRUE(ValidateTenantName("team-a_01.prod").ok());
  EXPECT_FALSE(ValidateTenantName("").ok());
  EXPECT_FALSE(ValidateTenantName("has space").ok());
  EXPECT_FALSE(ValidateTenantName(std::string("x\x01y")).ok());
  EXPECT_FALSE(ValidateTenantName(std::string(kServeMaxTenantBytes + 1, 'a'))
                   .ok());
  EXPECT_TRUE(ValidateTenantName(std::string(kServeMaxTenantBytes, 'a')).ok());
}

TEST(ServeProtocol, HelloPayloadRoundTripsAndRejectsBadVersions) {
  const auto payload = EncodeHelloPayload("tenant-7");
  auto tag = PeekPayloadTag(payload.data(), payload.size(), "t");
  ASSERT_TRUE(tag.ok());
  EXPECT_EQ(*tag, kServeHelloTag);
  auto tenant = DecodeHelloPayload(payload.data(), payload.size(), "t");
  ASSERT_TRUE(tenant.ok()) << tenant.status().ToString();
  EXPECT_EQ(*tenant, "tenant-7");

  // Flip the version word (bytes 4..8) to an unknown value.
  std::vector<uint8_t> wrong_version = payload;
  wrong_version[4] = 99;
  auto rejected =
      DecodeHelloPayload(wrong_version.data(), wrong_version.size(), "t");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // Trailing bytes mean a codec mismatch, not extra features.
  std::vector<uint8_t> trailing = payload;
  trailing.push_back(0);
  auto corrupt = DecodeHelloPayload(trailing.data(), trailing.size(), "t");
  EXPECT_FALSE(corrupt.ok());
}

// ---------------------------------------------------------------------------
// NetServer over loopback sockets

/// A synthetic fitted model so forecasts have something to serve.
ServedModel MakeModel(const std::string& keyword) {
  ServedModel model;
  model.keyword = keyword;
  model.params.population = 1000.0;
  model.params.beta = 0.2;
  model.params.delta = 0.11;
  model.params.gamma = 0.07;
  model.params.i0 = 2.0;
  model.params.growth_rate = 0.5;
  model.params.growth_start = 40;
  Shock shock;
  shock.keyword = 0;
  shock.period = 7;
  shock.start = 3;
  shock.width = 2;
  shock.base_strength = 1.5;
  shock.global_strengths = {1.5, 1.7, 1.5};
  model.shocks.push_back(shock);
  model.fit_ticks = 64;
  model.rmse = 3.25;
  model.cost_bits = 812.5;
  return model;
}

bool SendAll(int fd, const uint8_t* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocks for one frame payload; false on EOF/error/desync.
bool RecvFrame(int fd, FrameAssembler* assembler,
               std::vector<uint8_t>* payload) {
  uint8_t chunk[4096];
  for (;;) {
    auto have = assembler->Next(payload);
    if (!have.ok() || *have) return have.ok();
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    assembler->Append(chunk, static_cast<size_t>(n));
  }
}

/// True once the peer half-closes (a torn-down connection drains to EOF).
bool RecvEof(int fd) {
  uint8_t chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == ECONNRESET;  // RST is also a teardown
    }
    if (n == 0) return true;
  }
}

/// Registry + engine + running server, torn down in the contract order
/// (Shutdown -> join Run -> engine.Stop -> destructors).
struct ServerHarness {
  explicit ServerHarness(NetServerOptions net_options = {},
                         ServeOptions serve_options = {})
      : registry(RegistryOptions{}),
        engine(&registry, serve_options),
        server(&engine, net_options) {
    for (int i = 0; i < 7; ++i) {
      EXPECT_TRUE(registry.Put(MakeModel("kw" + std::to_string(i))).ok());
    }
    Status status = server.Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
    loop = std::thread([this]() { run_status = server.Run(); });
  }

  ~ServerHarness() {
    server.Shutdown();
    loop.join();
    engine.Stop();
    EXPECT_TRUE(run_status.ok()) << run_status.ToString();
  }

  ModelRegistry registry;
  ServeEngine engine;
  NetServer server;
  std::thread loop;
  Status run_status = Status::Ok();
};

TEST(NetServer, RoundTripsRequestsSplitAtHostileBoundaries) {
  ServerHarness harness;
  const int fd = ConnectTo(harness.server.port());
  ASSERT_GE(fd, 0);

  // One byte stream of 20 requests, written in 3-byte chunks so every
  // frame crosses several TCP writes.
  std::vector<uint8_t> stream;
  for (uint64_t id = 1; id <= 20; ++id) {
    const auto wire = FrameBytes(EncodeRequestPayload(MakeRequest(id)));
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  for (size_t pos = 0; pos < stream.size(); pos += 3) {
    const size_t n = std::min<size_t>(3, stream.size() - pos);
    ASSERT_TRUE(SendAll(fd, stream.data() + pos, n));
  }

  FrameAssembler assembler("client");
  std::vector<uint8_t> payload;
  for (uint64_t id = 1; id <= 20; ++id) {
    ASSERT_TRUE(RecvFrame(fd, &assembler, &payload)) << "reply " << id;
    auto reply = DecodeReplyPayload(payload.data(), payload.size(), "client");
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    // Replies come back in request order on one connection.
    EXPECT_EQ(reply->id, id);
    EXPECT_TRUE(reply->status.ok()) << reply->status.ToString();
  }
  ::close(fd);

  // The transport saw exactly what we sent.
  for (int spin = 0; spin < 10000; ++spin) {
    if (harness.server.stats().requests == 20) break;
    std::this_thread::yield();
  }
  const NetServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.requests, 20u);
  EXPECT_EQ(stats.replies, 20u);
  EXPECT_EQ(stats.desync_teardowns, 0u);
}

TEST(NetServer, HostileConnectionTearsDownAloneOthersKeepServing) {
  ServerHarness harness;
  const int good = ConnectTo(harness.server.port());
  const int evil = ConnectTo(harness.server.port());
  ASSERT_GE(good, 0);
  ASSERT_GE(evil, 0);

  // Desynchronized garbage: a length prefix way over the cap.
  const uint8_t junk[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(SendAll(evil, junk, sizeof(junk)));
  EXPECT_TRUE(RecvEof(evil));  // torn down with a located error
  ::close(evil);

  // The good connection is unaffected, before and after the teardown.
  const auto wire = FrameBytes(EncodeRequestPayload(MakeRequest(3)));
  ASSERT_TRUE(SendAll(good, wire.data(), wire.size()));
  FrameAssembler assembler("client");
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RecvFrame(good, &assembler, &payload));
  auto reply = DecodeReplyPayload(payload.data(), payload.size(), "client");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->id, 3u);
  EXPECT_TRUE(reply->status.ok()) << reply->status.ToString();
  ::close(good);

  for (int spin = 0; spin < 10000; ++spin) {
    if (harness.server.stats().desync_teardowns == 1) break;
    std::this_thread::yield();
  }
  EXPECT_EQ(harness.server.stats().desync_teardowns, 1u);
}

TEST(NetServer, UndecodableRequestPayloadTearsDown) {
  ServerHarness harness;
  const int fd = ConnectTo(harness.server.port());
  ASSERT_GE(fd, 0);
  // A well-framed payload with a valid request tag but truncated body.
  std::vector<uint8_t> payload = EncodeRequestPayload(MakeRequest(1));
  payload.resize(payload.size() / 2);
  const auto wire = FrameBytes(payload);
  ASSERT_TRUE(SendAll(fd, wire.data(), wire.size()));
  EXPECT_TRUE(RecvEof(fd));
  ::close(fd);
}

TEST(NetServer, HelloBindsTenantAndMustBeFirst) {
  ServeOptions serve_options;
  serve_options.tenant_quota = 4;
  ServerHarness harness(NetServerOptions{}, serve_options);

  // Handshake then a request: served under the named tenant.
  const int fd = ConnectTo(harness.server.port());
  ASSERT_GE(fd, 0);
  const auto hello = FrameBytes(EncodeHelloPayload("team-x"));
  ASSERT_TRUE(SendAll(fd, hello.data(), hello.size()));
  const auto wire = FrameBytes(EncodeRequestPayload(MakeRequest(5)));
  ASSERT_TRUE(SendAll(fd, wire.data(), wire.size()));
  FrameAssembler assembler("client");
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RecvFrame(fd, &assembler, &payload));
  auto reply = DecodeReplyPayload(payload.data(), payload.size(), "client");
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->status.ok()) << reply->status.ToString();

  // A second hello mid-stream is a protocol violation.
  ASSERT_TRUE(SendAll(fd, hello.data(), hello.size()));
  EXPECT_TRUE(RecvEof(fd));
  ::close(fd);

  const auto tenants = harness.engine.tenant_stats();
  auto it = tenants.find("team-x");
  ASSERT_NE(it, tenants.end());
  EXPECT_EQ(it->second.submitted, 1u);
  EXPECT_EQ(it->second.completed, 1u);
}

TEST(NetServer, MalformedHelloTearsDown) {
  ServerHarness harness;
  const int fd = ConnectTo(harness.server.port());
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> bad_version = EncodeHelloPayload("t");
  bad_version[4] = 42;  // unknown handshake version
  const auto wire = FrameBytes(bad_version);
  ASSERT_TRUE(SendAll(fd, wire.data(), wire.size()));
  EXPECT_TRUE(RecvEof(fd));
  ::close(fd);
}

TEST(NetServer, ConnectionCapAcceptsThenCloses) {
  NetServerOptions net_options;
  net_options.max_conns = 1;
  ServerHarness harness(net_options);
  const int first = ConnectTo(harness.server.port());
  ASSERT_GE(first, 0);
  // Prove the first conn is registered before racing the second one in.
  const auto wire = FrameBytes(EncodeRequestPayload(MakeRequest(1)));
  ASSERT_TRUE(SendAll(first, wire.data(), wire.size()));
  FrameAssembler assembler("client");
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RecvFrame(first, &assembler, &payload));

  const int second = ConnectTo(harness.server.port());
  ASSERT_GE(second, 0);  // accept()ed...
  EXPECT_TRUE(RecvEof(second));  // ...then closed: over capacity
  ::close(second);
  ::close(first);

  for (int spin = 0; spin < 10000; ++spin) {
    if (harness.server.stats().rejected_at_capacity == 1) break;
    std::this_thread::yield();
  }
  EXPECT_EQ(harness.server.stats().rejected_at_capacity, 1u);
}

/// A cold fit of a fresh keyword: tens of milliseconds of engine work.
ServeRequest SlowFit(uint64_t id) {
  ServeRequest slow;
  slow.id = id;
  slow.op = ServeOp::kFit;
  slow.keyword = "fresh";
  slow.values.resize(256);
  for (size_t t = 0; t < slow.values.size(); ++t) {
    slow.values[t] =
        30.0 + 8.0 * std::sin(0.9 * static_cast<double>(t)) +
        (t >= 20 && t < 23 ? 40.0 : 0.0);
  }
  return slow;
}

TEST(NetServer, ShutdownDrainsInFlightRepliesBeforeClosing) {
  ServerHarness harness;
  const int fd = ConnectTo(harness.server.port());
  ASSERT_GE(fd, 0);

  // A cold fit keeps the engine busy long enough for Shutdown() to race
  // real in-flight work.
  const auto wire = FrameBytes(EncodeRequestPayload(SlowFit(77)));
  ASSERT_TRUE(SendAll(fd, wire.data(), wire.size()));
  // Drain finishes ADMITTED work: wait until the transport has submitted
  // the request before asking for shutdown, or there is nothing in
  // flight to drain.
  while (harness.server.stats().requests < 1) {
    std::this_thread::yield();
  }
  harness.server.Shutdown();

  // The reply still arrives, then the server closes the connection.
  FrameAssembler assembler("client");
  std::vector<uint8_t> payload;
  ASSERT_TRUE(RecvFrame(fd, &assembler, &payload));
  auto reply = DecodeReplyPayload(payload.data(), payload.size(), "client");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->id, 77u);
  EXPECT_TRUE(reply->status.ok()) << reply->status.ToString();
  EXPECT_TRUE(RecvEof(fd));
  ::close(fd);
}

TEST(NetServer, IncompleteTailIsReportedAfterEveryCompleteFrame) {
  ServerHarness harness;
  const int fd = ConnectTo(harness.server.port());
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> stream;
  for (uint64_t id = 1; id <= 2; ++id) {
    const auto wire = FrameBytes(EncodeRequestPayload(MakeRequest(id)));
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  const auto third = FrameBytes(EncodeRequestPayload(MakeRequest(3)));
  stream.insert(stream.end(), third.begin(), third.begin() + 3);
  ASSERT_TRUE(SendAll(fd, stream.data(), stream.size()));
  ::shutdown(fd, SHUT_WR);

  // Both complete frames are answered, then the tail closes the
  // connection as a protocol error.
  FrameAssembler assembler("client");
  std::vector<uint8_t> payload;
  for (uint64_t id = 1; id <= 2; ++id) {
    ASSERT_TRUE(RecvFrame(fd, &assembler, &payload)) << "reply " << id;
    auto reply = DecodeReplyPayload(payload.data(), payload.size(), "client");
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->id, id);
  }
  EXPECT_TRUE(RecvEof(fd));
  ::close(fd);

  for (int spin = 0; spin < 10000; ++spin) {
    if (harness.server.stats().desync_teardowns == 1) break;
    std::this_thread::yield();
  }
  EXPECT_EQ(harness.server.stats().desync_teardowns, 1u);
}

TEST(NetServer, OneConnectionIsPacedToTheQueueCapNeverShed) {
  ServeOptions serve_options;
  serve_options.queue_cap = 2;
  ServerHarness harness(NetServerOptions{}, serve_options);
  const int fd = ConnectTo(harness.server.port());
  ASSERT_GE(fd, 0);
  // The fit holds the one worker while 40 forecasts pile up behind it:
  // unpaced, the queue of 2 would shed most of them.
  std::vector<uint8_t> stream = FrameBytes(EncodeRequestPayload(SlowFit(0)));
  for (uint64_t id = 1; id <= 40; ++id) {
    const auto wire = FrameBytes(EncodeRequestPayload(MakeRequest(id)));
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  ASSERT_TRUE(SendAll(fd, stream.data(), stream.size()));

  FrameAssembler assembler("client");
  std::vector<uint8_t> payload;
  for (uint64_t id = 0; id <= 40; ++id) {
    ASSERT_TRUE(RecvFrame(fd, &assembler, &payload)) << "reply " << id;
    auto reply = DecodeReplyPayload(payload.data(), payload.size(), "client");
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->id, id);
    EXPECT_TRUE(reply->status.ok()) << reply->status.ToString();
  }
  ::close(fd);
  EXPECT_EQ(harness.engine.stats().admission_rejects, 0u);
}

/// 30 forecasts behind a tenant handshake: the stream every transport
/// must answer with the same bytes.
std::vector<uint8_t> TransportStream() {
  std::vector<uint8_t> stream = FrameBytes(EncodeHelloPayload("team-x"));
  for (uint64_t id = 1; id <= 30; ++id) {
    const auto wire = FrameBytes(EncodeRequestPayload(MakeRequest(id)));
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  return stream;
}

/// Serves `in_fd` as an adopted connection whose output is a pipe, and
/// returns every byte written to it. Run() must return on its own at EOF.
std::vector<uint8_t> ServeAdopted(int in_fd) {
  ModelRegistry registry{RegistryOptions{}};
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(registry.Put(MakeModel("kw" + std::to_string(i))).ok());
  }
  ServeEngine engine(&registry, ServeOptions{});
  NetServer server(&engine, NetServerOptions{});
  int out[2];
  EXPECT_EQ(::pipe(out), 0);
  std::vector<uint8_t> replies;
  std::thread reader([&replies, fd = out[0]]() {
    uint8_t chunk[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
      replies.insert(replies.end(), chunk, chunk + n);
    }
  });
  Status status = server.Adopt(in_fd, out[1], "adopted");
  EXPECT_TRUE(status.ok()) << status.ToString();
  status = server.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  engine.Stop();
  // The server closed out[1] when the connection ended.
  reader.join();
  ::close(out[0]);
  EXPECT_EQ(server.stats().replies, 30u);
  return replies;
}

TEST(NetServer, AdoptedPipeAndFileMatchLoopbackTcp) {
  const std::vector<uint8_t> stream = TransportStream();
  std::vector<uint8_t> tcp_replies;
  {
    ServerHarness harness;
    const int fd = ConnectTo(harness.server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAll(fd, stream.data(), stream.size()));
    ::shutdown(fd, SHUT_WR);
    uint8_t chunk[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      tcp_replies.insert(tcp_replies.end(), chunk, chunk + n);
    }
    ::close(fd);
  }
  ASSERT_FALSE(tcp_replies.empty());

  // A pipe whose writer has closed: POLLHUP must read to EOF, not drop
  // the buffered frames.
  int in[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_LT(stream.size(), 4096u);  // fits the pipe buffer unread
  ASSERT_EQ(::write(in[1], stream.data(), stream.size()),
            static_cast<ssize_t>(stream.size()));
  ::close(in[1]);
  EXPECT_EQ(ServeAdopted(in[0]), tcp_replies);

  // A regular file, as when stdin is redirected from one.
  const std::string path =
      ::testing::TempDir() + "net_server_adopt_" +
      std::to_string(static_cast<long long>(::getpid())) + ".bin";
  FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(stream.data(), 1, stream.size(), file), stream.size());
  std::fclose(file);
  const int file_fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(file_fd, 0);
  EXPECT_EQ(ServeAdopted(file_fd), tcp_replies);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dspot
