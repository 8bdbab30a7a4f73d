#ifndef DSPOT_SERVE_NET_SERVER_H_
#define DSPOT_SERVE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"
#include "serve/serve_engine.h"

namespace dspot {

/// dspot_serve's transport: a single-threaded poll(2) event loop speaking
/// the DSRQ/DSRP frame codec in front of a ServeEngine. Its connections
/// are accepted TCP sockets (Start()) and adopted fd pairs such as
/// stdin/stdout (Adopt()); every connection follows the same rules.
///
/// - Frames arrive split at arbitrary byte boundaries; each connection
///   owns a FrameAssembler that reassembles them incrementally.
/// - An optional first frame ("DSRH" tenant handshake) binds the
///   connection to an admission tenant; every request submitted on it
///   then competes only inside that tenant's quota slice.
/// - Pacing: a connection stops submitting while its in-flight count
///   reaches the engine's queue cap. Complete frames wait in the
///   assembler and resume as replies leave, so one connection alone never
///   overflows the admission queue.
/// - Replies return to the event loop through ServeEngine callbacks and
///   a wake pipe, are re-ordered back into per-connection request order,
///   and are written with backpressure: unflushed bytes keep the output
///   fd in the poll set, and a connection whose unflushed bytes exceed
///   max_write_buffer_bytes stops being read until it drains.
/// - A protocol violation (bad tag, undecodable payload, over-cap frame
///   length) tears down THAT connection with a located error; the
///   process and every other connection keep serving. So does an
///   incomplete frame at EOF, after every complete frame before it has
///   been answered and flushed.
/// - Shutdown() is async-signal-safe: it closes the listener, stops
///   reading, lets in-flight replies complete and flush, then returns
///   from Run().
///
/// DETERMINISM: one connection's requests are submitted in frame arrival
/// order and its replies are written in the same order, so a connection
/// that is never shed receives replies byte-identical to a serial replay
/// of its stream, whatever its transport and at any worker thread count
/// (serve_smoke and serve_net_smoke hold the CLI to this).

struct NetServerOptions {
  /// Listen address; the default binds loopback only — serving a public
  /// interface is an explicit operator decision.
  std::string bind_address = "127.0.0.1";
  /// Listen port; 0 asks the kernel for an ephemeral port (read it back
  /// with port() after Start()).
  uint16_t port = 0;
  /// Accepted-connection cap; arrivals beyond it are accepted and
  /// immediately closed so the client sees EOF, not a hung SYN.
  size_t max_conns = 256;
  /// Per-connection unflushed reply bytes above which the server stops
  /// READING that connection (admission backpressure) until the client
  /// drains below half of this; its output stays in the poll set
  /// throughout.
  size_t max_write_buffer_bytes = 4u << 20;
  /// How long Shutdown() lets connections finish flushing before they
  /// are force-closed (a drain must not hang on a client that stopped
  /// reading).
  double drain_timeout_ms = 5000.0;
};

/// Transport-level counters (engine-level counts live in ServeStats).
struct NetServerStats {
  uint64_t accepted = 0;
  uint64_t rejected_at_capacity = 0;  ///< accept()ed then closed: over cap
  uint64_t closed = 0;                ///< connections fully torn down
  uint64_t desync_teardowns = 0;      ///< closed due to protocol violations
  uint64_t handshakes = 0;            ///< DSRH frames accepted
  uint64_t requests = 0;              ///< request frames submitted
  uint64_t replies = 0;               ///< reply frames queued to the wire
  uint64_t backpressure_pauses = 0;   ///< reads paused on a full write buffer
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

class NetServer {
 public:
  /// `engine` must outlive the server. Construction is cheap; the fd work
  /// happens in Start() and Adopt().
  NetServer(ServeEngine* engine, const NetServerOptions& options);

  /// Closes every fd still open (Run() must have returned, or never run).
  /// LIFETIME: reply callbacks registered with the engine reference this
  /// server, so call engine->Stop() (which drains them) between Run()
  /// returning and destroying the server.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Creates, binds, and listens the server socket. After Ok, port() is
  /// the bound port.
  Status Start();

  /// Serves the open fds `in_fd` (read) and `out_fd` (written; may equal
  /// `in_fd`) as one connection named `label`, with or without Start().
  /// Call it before Run(). The server owns both fds from here on and
  /// closes them when the connection ends, so the reader of `out_fd` sees
  /// EOF.
  Status Adopt(int in_fd, int out_fd, std::string label);

  /// The bound listen port (valid after Start()).
  uint16_t port() const { return port_; }

  /// Runs the event loop on the calling thread — accept, read, submit,
  /// reorder, flush — until a Shutdown() drain completes, or until no
  /// listener and no connection remain. Returns poll()'s own failure, or
  /// the error an adopted connection closed on (its owner reports it);
  /// accepted connections' errors are logged, never returned.
  Status Run();

  /// Requests a graceful drain: async-signal-safe (a flag store and a
  /// pipe write), callable from any thread or signal handler, idempotent.
  void Shutdown();

  NetServerStats stats() const;

 private:
  struct Conn {
    int in_fd = -1;
    int out_fd = -1;           ///< == in_fd for a socket
    bool out_is_socket = true; ///< send(MSG_NOSIGNAL), else write()
    bool adopted = false;      ///< Run() returns its error
    uint64_t id = 0;
    std::string peer;  ///< "addr:port" or the Adopt() label
    FrameAssembler assembler;
    std::string tenant;        ///< bound by the handshake; "" = default
    bool saw_first_frame = false;
    bool read_closed = false;  ///< EOF seen, or we are draining
    bool eof = false;          ///< read() returned 0
    bool paused_read = false;  ///< backpressure: output not draining
    uint64_t next_submit_seq = 0;
    uint64_t next_write_seq = 0;
    uint64_t in_flight = 0;    ///< submitted, reply not yet queued to wire
    std::map<uint64_t, ServeReply> ready;  ///< out-of-order replies
    std::vector<uint8_t> wbuf;
    size_t wpos = 0;

    explicit Conn(std::string peer_label)
        : peer(std::move(peer_label)), assembler("conn " + peer) {}
    size_t unflushed() const { return wbuf.size() - wpos; }
  };

  struct Completion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    ServeReply reply;
  };

  Status OpenWakePipe();
  Conn& AddConn(int in_fd, int out_fd, std::string peer);
  /// Whether `conn` takes more input: not closed, paused, or paced.
  bool WantsRead(const Conn& conn) const;
  void AcceptReady();
  void HandleReadable(Conn& conn);
  /// Submits complete frames from the assembler while pacing allows;
  /// false = the connection was torn down.
  bool SubmitFrames(Conn& conn);
  /// Decodes and dispatches one frame; false = the connection was torn
  /// down and must not be touched again.
  bool HandleFrame(Conn& conn, const std::vector<uint8_t>& payload);
  void ProcessCompletions();
  /// Encodes ready in-order replies onto the write buffer and flushes.
  bool PumpReplies(Conn& conn);
  bool FlushWrites(Conn& conn);
  void Teardown(Conn& conn, const Status& why, bool protocol_error);
  /// Closes the connection if nothing remains to read, execute, or flush;
  /// an incomplete frame left at EOF closes it as a protocol error.
  bool MaybeRetire(Conn& conn);
  void Wake();

  ServeEngine* engine_;
  NetServerOptions options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};
  Status adopted_error_ = Status::Ok();
  std::atomic<bool> shutdown_requested_{false};
  bool draining_ = false;

  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, Conn> conns_;  ///< id -> connection

  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  mutable std::mutex stats_mu_;
  NetServerStats stats_;
};

}  // namespace dspot

#endif  // DSPOT_SERVE_NET_SERVER_H_
