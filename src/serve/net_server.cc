#include "serve/net_server.h"

#ifdef __linux__

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "snapshot/codec.h"

namespace dspot {

namespace {

/// epoll_event.data.u64 tokens for the two non-connection fds;
/// connection ids start above them.
constexpr uint64_t kListenerToken = 0;
constexpr uint64_t kWakeToken = 1;
constexpr uint64_t kFirstConnId = 2;

std::string ErrnoText() { return std::strerror(errno); }

std::string PeerLabel(const sockaddr_in& addr) {
  char text[INET_ADDRSTRLEN] = "?";
  ::inet_ntop(AF_INET, &addr.sin_addr, text, sizeof(text));
  return std::string(text) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

NetServer::NetServer(ServeEngine* engine, const NetServerOptions& options)
    : engine_(engine), options_(options) {
  next_conn_id_ = kFirstConnId;
  options_.max_conns = std::max<size_t>(size_t{1}, options_.max_conns);
  options_.max_write_buffer_bytes =
      std::max<size_t>(size_t{4096}, options_.max_write_buffer_bytes);
}

NetServer::~NetServer() {
  for (auto& [id, conn] : conns_) {
    ::close(conn.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

Status NetServer::Start() {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("net_server: socket: " + ErrnoText());
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("net_server: bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IoError("net_server: bind " + options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " + ErrnoText());
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::IoError("net_server: listen: " + ErrnoText());
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return Status::IoError("net_server: getsockname: " + ErrnoText());
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IoError("net_server: epoll_create1: " + ErrnoText());
  }
  if (::pipe2(wake_fds_, O_CLOEXEC | O_NONBLOCK) != 0) {
    return Status::IoError("net_server: pipe2: " + ErrnoText());
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Status::IoError("net_server: epoll_ctl(listener): " + ErrnoText());
  }
  ev.data.u64 = kWakeToken;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev) != 0) {
    return Status::IoError("net_server: epoll_ctl(wake): " + ErrnoText());
  }
  return Status::Ok();
}

void NetServer::Wake() {
  // Async-signal-safe: one byte is enough, and a full pipe already
  // guarantees a pending wakeup.
  const uint8_t byte = 0;
  [[maybe_unused]] ssize_t ignored = ::write(wake_fds_[1], &byte, 1);
}

void NetServer::Shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  Wake();
}

NetServerStats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

Status NetServer::Run() {
  if (epoll_fd_ < 0) {
    return Status::FailedPrecondition("net_server: Run before Start");
  }
  std::chrono::steady_clock::time_point drain_start;
  epoll_event events[64];
  for (;;) {
    // During a drain, poll with a timeout so the drain deadline fires
    // even if no fd ever becomes ready again.
    const int timeout_ms = draining_ ? 50 : -1;
    const int n = ::epoll_wait(epoll_fd_, events,
                               static_cast<int>(std::size(events)),
                               timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("net_server: epoll_wait: " + ErrnoText());
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t token = events[i].data.u64;
      if (token == kWakeToken) {
        uint8_t sink[256];
        while (::read(wake_fds_[0], sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      if (token == kListenerToken) {
        AcceptReady();
        continue;
      }
      // A token that no longer resolves is an event queued for a
      // connection torn down earlier in this same batch — skip it.
      auto it = conns_.find(token);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      const uint32_t ev = events[i].events;
      if (ev & EPOLLERR) {
        Teardown(conn, Status::IoError("socket error (EPOLLERR)"), false);
        continue;
      }
      if (ev & EPOLLHUP) {
        // Peer closed both directions: nothing we buffer can ever be
        // delivered.
        Teardown(conn, Status::Ok(), false);
        continue;
      }
      if (ev & EPOLLOUT) {
        if (!FlushWrites(conn)) continue;
        if (MaybeRetire(conn)) continue;
      }
      if (ev & EPOLLIN) {
        HandleReadable(conn);
      }
    }
    ProcessCompletions();
    if (shutdown_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      drain_start = std::chrono::steady_clock::now();
      if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // Stop reading every connection; in-flight replies still complete
      // and flush before the connection retires.
      std::vector<uint64_t> ids;
      ids.reserve(conns_.size());
      for (const auto& [id, conn] : conns_) ids.push_back(id);
      for (uint64_t id : ids) {
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        Conn& conn = it->second;
        conn.read_closed = true;
        UpdateInterest(conn);
        if (!FlushWrites(conn)) continue;
        MaybeRetire(conn);
      }
    }
    if (draining_) {
      if (conns_.empty()) {
        return Status::Ok();
      }
      const double waited_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - drain_start)
              .count();
      if (waited_ms > options_.drain_timeout_ms) {
        std::vector<uint64_t> ids;
        ids.reserve(conns_.size());
        for (const auto& [id, conn] : conns_) ids.push_back(id);
        for (uint64_t id : ids) {
          auto it = conns_.find(id);
          if (it == conns_.end()) continue;
          Teardown(it->second,
                   Status::DeadlineExceeded("drain timeout; force-closed"),
                   false);
        }
        return Status::Ok();
      }
    }
  }
}

void NetServer::AcceptReady() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd =
        ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      std::fprintf(stderr, "dspot_serve: accept: %s\n", ErrnoText().c_str());
      break;
    }
    if (draining_ || conns_.size() >= options_.max_conns) {
      // Accept-then-close: the client sees an immediate EOF instead of a
      // connection that hangs in the backlog.
      ::close(fd);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected_at_capacity;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    auto [it, inserted] = conns_.emplace(
        std::piecewise_construct, std::forward_as_tuple(id),
        std::forward_as_tuple(PeerLabel(peer)));
    Conn& conn = it->second;
    conn.fd = fd;
    conn.id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      std::fprintf(stderr, "dspot_serve: %s: epoll_ctl(add): %s\n",
                   conn.peer.c_str(), ErrnoText().c_str());
      ::close(fd);
      conns_.erase(it);
      continue;
    }
    DSPOT_COUNT("serve.net.accepted", 1);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
  }
}

void NetServer::HandleReadable(Conn& conn) {
  uint8_t buf[65536];
  for (;;) {
    if (conn.paused_read || conn.read_closed) return;
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      Teardown(conn, Status::IoError("read: " + ErrnoText()), false);
      return;
    }
    if (n == 0) {
      // Half-close: the client finished sending (shutdown(SHUT_WR)) and
      // is now reading replies. Stop watching EPOLLIN; retire once every
      // in-flight reply has flushed.
      conn.read_closed = true;
      UpdateInterest(conn);
      MaybeRetire(conn);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.bytes_in += static_cast<uint64_t>(n);
    }
    conn.assembler.Append(buf, static_cast<size_t>(n));
    std::vector<uint8_t> payload;
    for (;;) {
      StatusOr<bool> have = conn.assembler.Next(&payload);
      if (!have.ok()) {
        Teardown(conn, have.status(), true);
        return;
      }
      if (!*have) break;
      if (!HandleFrame(conn, payload)) return;
    }
    if (conn.unflushed() > options_.max_write_buffer_bytes &&
        !conn.paused_read) {
      // Backpressure: this client is not draining its replies, so stop
      // feeding its requests into the engine. EPOLLOUT stays armed; the
      // read side resumes once the buffer halves.
      conn.paused_read = true;
      UpdateInterest(conn);
      DSPOT_COUNT("serve.net.backpressure_pauses", 1);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.backpressure_pauses;
      return;
    }
  }
}

bool NetServer::HandleFrame(Conn& conn, const std::vector<uint8_t>& payload) {
  const std::string context = "conn " + conn.peer;
  StatusOr<uint32_t> tag =
      PeekPayloadTag(payload.data(), payload.size(), context);
  if (!tag.ok()) {
    Teardown(conn, tag.status(), true);
    return false;
  }
  if (*tag == kServeHelloTag) {
    if (conn.saw_first_frame) {
      Teardown(conn,
               Status::InvalidArgument(
                   context + ": tenant handshake arrived after traffic"),
               true);
      return false;
    }
    StatusOr<std::string> tenant =
        DecodeHelloPayload(payload.data(), payload.size(), context);
    if (!tenant.ok()) {
      Teardown(conn, tenant.status(), true);
      return false;
    }
    conn.tenant = std::move(*tenant);
    conn.saw_first_frame = true;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.handshakes;
    return true;
  }
  if (*tag != kServeRequestTag) {
    Teardown(conn,
             Status::DataLoss(context + ": unexpected frame tag " +
                              std::to_string(*tag) +
                              " (want a request or a handshake)"),
             true);
    return false;
  }
  StatusOr<ServeRequest> request =
      DecodeRequestPayload(payload.data(), payload.size(), context);
  if (!request.ok()) {
    Teardown(conn, request.status(), true);
    return false;
  }
  conn.saw_first_frame = true;
  request->tenant = conn.tenant;
  const uint64_t seq = conn.next_submit_seq++;
  ++conn.in_flight;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
  }
  const uint64_t conn_id = conn.id;
  engine_->SubmitWithCallback(
      std::move(*request), [this, conn_id, seq](ServeReply reply) {
        {
          std::lock_guard<std::mutex> lock(completions_mu_);
          completions_.push_back(Completion{conn_id, seq, std::move(reply)});
        }
        Wake();
      });
  return true;
}

void NetServer::ProcessCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  if (batch.empty()) return;
  std::unordered_set<uint64_t> touched;
  for (Completion& completion : batch) {
    auto it = conns_.find(completion.conn_id);
    // A completion for a torn-down connection is dropped with it.
    if (it == conns_.end()) continue;
    it->second.ready.emplace(completion.seq, std::move(completion.reply));
    touched.insert(completion.conn_id);
  }
  for (uint64_t id : touched) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    PumpReplies(it->second);
  }
}

bool NetServer::PumpReplies(Conn& conn) {
  // Replies go on the wire in REQUEST order per connection, regardless of
  // the order the engine's per-keyword strands completed them — the wire
  // contract matches the stdin/stdout pipe exactly.
  uint64_t queued = 0;
  while (!conn.ready.empty() &&
         conn.ready.begin()->first == conn.next_write_seq) {
    const std::vector<uint8_t> payload =
        EncodeReplyPayload(conn.ready.begin()->second);
    conn.ready.erase(conn.ready.begin());
    ++conn.next_write_seq;
    --conn.in_flight;
    if (payload.size() > kServeMaxFrameBytes) {
      // Unreachable by the forecast-cap static_assert, but a frame no
      // reader could accept must never be emitted.
      Teardown(conn,
               Status::InvalidArgument(
                   "conn " + conn.peer + ": reply payload " +
                   std::to_string(payload.size()) + " bytes exceeds cap"),
               false);
      return false;
    }
    uint8_t prefix[4];
    for (int i = 0; i < 4; ++i) {
      prefix[i] = static_cast<uint8_t>((payload.size() >> (8 * i)) & 0xff);
    }
    conn.wbuf.insert(conn.wbuf.end(), prefix, prefix + 4);
    conn.wbuf.insert(conn.wbuf.end(), payload.begin(), payload.end());
    ++queued;
  }
  if (queued > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.replies += queued;
  }
  if (!FlushWrites(conn)) return false;
  return !MaybeRetire(conn);
}

bool NetServer::FlushWrites(Conn& conn) {
  while (conn.wpos < conn.wbuf.size()) {
    // send(MSG_NOSIGNAL), not write(): a peer that closed mid-reply must
    // surface as EPIPE on this connection, not SIGPIPE for the process.
    const ssize_t n =
        ::send(conn.fd, conn.wbuf.data() + conn.wpos,
               conn.wbuf.size() - conn.wpos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      Teardown(conn, Status::IoError("write: " + ErrnoText()), false);
      return false;
    }
    conn.wpos += static_cast<size_t>(n);
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.bytes_out += static_cast<uint64_t>(n);
  }
  if (conn.wpos == conn.wbuf.size()) {
    conn.wbuf.clear();
    conn.wpos = 0;
  } else if (conn.wpos > (1u << 20) && conn.wpos * 2 >= conn.wbuf.size()) {
    conn.wbuf.erase(conn.wbuf.begin(),
                    conn.wbuf.begin() + static_cast<ptrdiff_t>(conn.wpos));
    conn.wpos = 0;
  }
  const bool need_out = conn.unflushed() > 0;
  bool interest_changed = false;
  if (need_out != conn.want_write) {
    conn.want_write = need_out;
    interest_changed = true;
  }
  if (conn.paused_read && !conn.read_closed &&
      conn.unflushed() < options_.max_write_buffer_bytes / 2) {
    conn.paused_read = false;
    interest_changed = true;
  }
  if (interest_changed) {
    UpdateInterest(conn);
  }
  return true;
}

void NetServer::UpdateInterest(Conn& conn) {
  epoll_event ev{};
  ev.events = 0;
  if (!conn.read_closed && !conn.paused_read) ev.events |= EPOLLIN;
  if (conn.want_write) ev.events |= EPOLLOUT;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

bool NetServer::MaybeRetire(Conn& conn) {
  if (conn.read_closed && conn.in_flight == 0 && conn.ready.empty() &&
      conn.unflushed() == 0) {
    Teardown(conn, Status::Ok(), false);
    return true;
  }
  return false;
}

void NetServer::Teardown(Conn& conn, const Status& why, bool protocol_error) {
  if (protocol_error) {
    // One hostile or desynchronized client costs exactly one connection;
    // the located error names the peer and the byte that broke.
    std::fprintf(stderr, "dspot_serve: %s: connection closed: %s\n",
                 conn.peer.c_str(), why.ToString().c_str());
    DSPOT_COUNT("serve.net.desync_teardowns", 1);
  } else if (!why.ok()) {
    std::fprintf(stderr, "dspot_serve: %s: connection dropped: %s\n",
                 conn.peer.c_str(), why.ToString().c_str());
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  const uint64_t id = conn.id;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.closed;
    if (protocol_error) ++stats_.desync_teardowns;
  }
  // `conn` dangles past this line.
  conns_.erase(id);
}

}  // namespace dspot

#else  // !__linux__

namespace dspot {

// epoll is Linux-only; other platforms keep the stdin/stdout transport.

NetServer::NetServer(ServeEngine* engine, const NetServerOptions& options)
    : engine_(engine), options_(options) {}

NetServer::~NetServer() = default;

Status NetServer::Start() {
  return Status::Unimplemented(
      "net_server: the TCP transport requires Linux epoll");
}

Status NetServer::Run() {
  return Status::Unimplemented(
      "net_server: the TCP transport requires Linux epoll");
}

void NetServer::Shutdown() {}

void NetServer::Wake() {}

NetServerStats NetServer::stats() const { return NetServerStats{}; }

void NetServer::AcceptReady() {}
void NetServer::HandleReadable(Conn&) {}
bool NetServer::HandleFrame(Conn&, const std::vector<uint8_t>&) {
  return false;
}
void NetServer::ProcessCompletions() {}
bool NetServer::PumpReplies(Conn&) { return false; }
bool NetServer::FlushWrites(Conn&) { return false; }
void NetServer::UpdateInterest(Conn&) {}
bool NetServer::MaybeRetire(Conn&) { return false; }
void NetServer::Teardown(Conn&, const Status&, bool) {}

}  // namespace dspot

#endif  // __linux__
