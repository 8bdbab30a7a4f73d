#include "serve/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"

namespace dspot {

namespace {

std::string ErrnoText() { return std::strerror(errno); }

std::string PeerLabel(const sockaddr_in& addr) {
  char text[INET_ADDRSTRLEN] = "?";
  ::inet_ntop(AF_INET, &addr.sin_addr, text, sizeof(text));
  return std::string(text) + ":" + std::to_string(ntohs(addr.sin_port));
}

bool SetNonBlockingCloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0 &&
         ::fcntl(fd, F_SETFD, FD_CLOEXEC) == 0;
}

}  // namespace

NetServer::NetServer(ServeEngine* engine, const NetServerOptions& options)
    : engine_(engine), options_(options) {
  options_.max_conns = std::max<size_t>(size_t{1}, options_.max_conns);
  options_.max_write_buffer_bytes =
      std::max<size_t>(size_t{4096}, options_.max_write_buffer_bytes);
}

NetServer::~NetServer() {
  for (auto& [id, conn] : conns_) {
    ::close(conn.in_fd);
    if (conn.out_fd != conn.in_fd) ::close(conn.out_fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

Status NetServer::OpenWakePipe() {
  if (wake_fds_[0] >= 0) return Status::Ok();
  if (::pipe(wake_fds_) != 0) {
    return Status::IoError("net_server: pipe: " + ErrnoText());
  }
  if (!SetNonBlockingCloexec(wake_fds_[0]) ||
      !SetNonBlockingCloexec(wake_fds_[1])) {
    return Status::IoError("net_server: fcntl(wake pipe): " + ErrnoText());
  }
  return Status::Ok();
}

Status NetServer::Start() {
  DSPOT_RETURN_IF_ERROR(OpenWakePipe());
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("net_server: socket: " + ErrnoText());
  }
  if (!SetNonBlockingCloexec(listen_fd_)) {
    return Status::IoError("net_server: fcntl(listener): " + ErrnoText());
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
  return Status::Ok();
}

Status NetServer::Adopt(int in_fd, int out_fd, std::string label) {
  DSPOT_RETURN_IF_ERROR(OpenWakePipe());
  struct stat out_stat {};
  if (::fcntl(in_fd, F_GETFD) < 0 || ::fstat(out_fd, &out_stat) != 0) {
    return Status::InvalidArgument("net_server: adopt " + label + ": " +
                                   ErrnoText());
  }
  Conn& conn = AddConn(in_fd, out_fd, std::move(label));
  conn.out_is_socket = S_ISSOCK(out_stat.st_mode);
  conn.adopted = true;
  return Status::Ok();
}

NetServer::Conn& NetServer::AddConn(int in_fd, int out_fd, std::string peer) {
  const uint64_t id = next_conn_id_++;
  auto [it, inserted] =
      conns_.emplace(std::piecewise_construct, std::forward_as_tuple(id),
                     std::forward_as_tuple(std::move(peer)));
  Conn& conn = it->second;
  conn.in_fd = in_fd;
  conn.out_fd = out_fd;
  conn.id = id;
  DSPOT_COUNT("serve.net.accepted", 1);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.accepted;
  return conn;
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

bool NetServer::WantsRead(const Conn& conn) const {
  return !conn.read_closed && !conn.paused_read &&
         conn.in_flight < engine_->queue_cap();
}

Status NetServer::Run() {
  if (wake_fds_[0] < 0) {
    return Status::FailedPrecondition("net_server: Run before Start or Adopt");
  }
  std::chrono::steady_clock::time_point drain_start;
  std::vector<pollfd> fds;
  std::vector<uint64_t> owners;  ///< conn id per fds entry
  for (;;) {
    // The poll set is rebuilt from connection state every iteration:
    // read interest while WantsRead, write interest while bytes are
    // unflushed. A socket stays in the set with no interest so its
    // POLLHUP/POLLERR still arrive; a read-only fd must not, or a
    // closed pipe would spin on POLLHUP.
    fds.assign({pollfd{wake_fds_[0], POLLIN, 0}});
    if (listen_fd_ >= 0) fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    const size_t first_conn = fds.size();
    owners.assign(first_conn, 0);
    for (const auto& [id, conn] : conns_) {
      const short in = WantsRead(conn) ? POLLIN : 0;
      const short out = conn.unflushed() > 0 ? POLLOUT : 0;
      if (conn.in_fd == conn.out_fd) {
        fds.push_back(pollfd{conn.in_fd, static_cast<short>(in | out), 0});
        owners.push_back(id);
        continue;
      }
      if (in != 0) {
        fds.push_back(pollfd{conn.in_fd, in, 0});
        owners.push_back(id);
      }
      if (out != 0) {
        fds.push_back(pollfd{conn.out_fd, out, 0});
        owners.push_back(id);
      }
    }
    // During a drain, poll with a timeout so the drain deadline fires
    // even if no fd ever becomes ready again.
    const int n = ::poll(fds.data(), fds.size(), draining_ ? 50 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("net_server: poll: " + ErrnoText());
    }
    if (fds[0].revents != 0) {
      uint8_t sink[256];
      while (::read(wake_fds_[0], sink, sizeof(sink)) > 0) {
      }
    }
    if (first_conn > 1 && (fds[1].revents & POLLIN) != 0) AcceptReady();
    for (size_t i = first_conn; i < fds.size(); ++i) {
      const short ev = fds[i].revents;
      if (ev == 0) continue;
      // An id that no longer resolves belongs to a connection torn down
      // earlier in this same pass — skip it.
      auto it = conns_.find(owners[i]);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      const bool shared = conn.in_fd == conn.out_fd;
      if ((ev & (POLLERR | POLLNVAL)) != 0) {
        Teardown(conn, Status::IoError("poll error on fd"), false);
        continue;
      }
      if ((ev & POLLHUP) != 0 && shared) {
        // Peer closed both directions: nothing we buffer can ever be
        // delivered. On an fd we only read, POLLHUP is just EOF ahead.
        Teardown(conn, Status::Ok(), false);
        continue;
      }
      if ((ev & POLLOUT) != 0) {
        if (!FlushWrites(conn)) continue;
        if (MaybeRetire(conn)) continue;
      }
      if ((ev & (POLLIN | POLLHUP)) != 0) {
        HandleReadable(conn);
      }
    }
    ProcessCompletions();
    if (shutdown_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      drain_start = std::chrono::steady_clock::now();
      if (listen_fd_ >= 0) {
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
        if (!FlushWrites(conn)) continue;
        MaybeRetire(conn);
      }
    }
    if (listen_fd_ < 0 && conns_.empty()) {
      return adopted_error_;
    }
    if (draining_) {
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
        return adopted_error_;
      }
    }
  }
}

void NetServer::AcceptReady() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len);
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
    if (!SetNonBlockingCloexec(fd)) {
      std::fprintf(stderr, "dspot_serve: %s: fcntl: %s\n",
                   PeerLabel(peer).c_str(), ErrnoText().c_str());
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    AddConn(fd, fd, PeerLabel(peer));
  }
}

void NetServer::HandleReadable(Conn& conn) {
  if (!WantsRead(conn)) return;
  // One read per readiness: poll is level-triggered, and an adopted fd
  // may be blocking, where a second read could stall the loop.
  uint8_t buf[65536];
  const ssize_t n = ::read(conn.in_fd, buf, sizeof(buf));
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    Teardown(conn, Status::IoError("read: " + ErrnoText()), false);
    return;
  }
  if (n == 0) {
    // The client finished sending (EOF, or shutdown(SHUT_WR) on a
    // socket) and is now reading replies; retire once every in-flight
    // reply has flushed.
    conn.read_closed = true;
    conn.eof = true;
    MaybeRetire(conn);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.bytes_in += static_cast<uint64_t>(n);
  }
  conn.assembler.Append(buf, static_cast<size_t>(n));
  if (!SubmitFrames(conn)) return;
  if (conn.unflushed() > options_.max_write_buffer_bytes &&
      !conn.paused_read) {
    // Backpressure: this client is not draining its replies, so stop
    // feeding its requests into the engine. The output stays in the poll
    // set; the read side resumes once the buffer halves.
    conn.paused_read = true;
    DSPOT_COUNT("serve.net.backpressure_pauses", 1);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.backpressure_pauses;
  }
}

bool NetServer::SubmitFrames(Conn& conn) {
  std::vector<uint8_t> payload;
  while (conn.in_flight < engine_->queue_cap()) {
    StatusOr<bool> have = conn.assembler.Next(&payload);
    if (!have.ok()) {
      Teardown(conn, have.status(), true);
      return false;
    }
    if (!*have) break;
    if (!HandleFrame(conn, payload)) return false;
  }
  return true;
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
  // the order the engine's per-keyword strands completed them.
  uint64_t queued = 0;
  while (!conn.ready.empty() &&
         conn.ready.begin()->first == conn.next_write_seq) {
    const Status appended =
        AppendFrame(EncodeReplyPayload(conn.ready.begin()->second),
                    &conn.wbuf);
    conn.ready.erase(conn.ready.begin());
    ++conn.next_write_seq;
    --conn.in_flight;
    if (!appended.ok()) {
      // Unreachable by the forecast-cap static_assert, but a frame no
      // reader could accept must never be emitted.
      Teardown(conn, appended, false);
      return false;
    }
    ++queued;
  }
  if (queued > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.replies += queued;
  }
  // Replies leaving reopen the pacing window for frames already read.
  if (!SubmitFrames(conn)) return false;
  if (!FlushWrites(conn)) return false;
  return !MaybeRetire(conn);
}

bool NetServer::FlushWrites(Conn& conn) {
  while (conn.wpos < conn.wbuf.size()) {
    // send(MSG_NOSIGNAL) on a socket: a peer that closed mid-reply must
    // surface as EPIPE on this connection, not SIGPIPE for the process.
    const uint8_t* data = conn.wbuf.data() + conn.wpos;
    const size_t size = conn.wbuf.size() - conn.wpos;
    const ssize_t n = conn.out_is_socket
                          ? ::send(conn.out_fd, data, size, MSG_NOSIGNAL)
                          : ::write(conn.out_fd, data, size);
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
  if (conn.paused_read &&
      conn.unflushed() < options_.max_write_buffer_bytes / 2) {
    conn.paused_read = false;
  }
  return true;
}

bool NetServer::MaybeRetire(Conn& conn) {
  if (!conn.read_closed || conn.in_flight != 0 || !conn.ready.empty() ||
      conn.unflushed() != 0) {
    return false;
  }
  if (conn.eof && conn.assembler.buffered() != 0) {
    // Every complete frame has been answered and flushed; what is left
    // can never become a frame.
    Teardown(conn,
             Status::DataLoss("conn " + conn.peer + ": byte " +
                              std::to_string(conn.assembler.stream_offset()) +
                              ": " + std::to_string(conn.assembler.buffered()) +
                              " trailing bytes form an incomplete frame"),
             true);
  } else {
    Teardown(conn, Status::Ok(), false);
  }
  return true;
}

void NetServer::Teardown(Conn& conn, const Status& why, bool protocol_error) {
  if (conn.adopted) {
    // The adopter owns this stream and reports its error from Run().
    if (!why.ok() && adopted_error_.ok()) adopted_error_ = why;
  } else if (protocol_error) {
    // One hostile or desynchronized client costs exactly one connection;
    // the located error names the peer and the byte that broke.
    std::fprintf(stderr, "dspot_serve: %s: connection closed: %s\n",
                 conn.peer.c_str(), why.ToString().c_str());
  } else if (!why.ok()) {
    std::fprintf(stderr, "dspot_serve: %s: connection dropped: %s\n",
                 conn.peer.c_str(), why.ToString().c_str());
  }
  if (protocol_error) DSPOT_COUNT("serve.net.desync_teardowns", 1);
  ::close(conn.in_fd);
  if (conn.out_fd != conn.in_fd) ::close(conn.out_fd);
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
