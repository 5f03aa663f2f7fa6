#ifndef RODIN_SERVER_SERVER_H_
#define RODIN_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "server/governor.h"
#include "server/wire.h"

namespace rodin::server {

/// How one rodin_serve instance listens and schedules. The engine itself
/// (dataset, optimizer, plan cache) is configured separately through
/// EngineOptions — a Server multiplexes whatever EngineHandle it is given.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (query it back via Server::port()
  /// — this is how in-process tests avoid port collisions).
  uint16_t port = 0;
  /// Worker threads executing queries (the I/O loop is one extra thread).
  size_t workers = 4;
  /// Admission slots: queries running or queued for a worker. Beyond this
  /// the governor sheds with kOverloaded. Also the session-pool size, so a
  /// checked-out session always exists for an admitted query.
  size_t max_in_flight = 64;
  int listen_backlog = 512;
  /// Per-frame write stall budget towards one client. A client that stops
  /// reading mid-stream for longer than this gets its connection dropped
  /// (and its query cancelled) instead of parking a worker forever.
  uint64_t send_timeout_ms = 10000;
  std::string banner = "rodin_serve/1";
};

/// The multi-tenant query server: one epoll I/O thread owning every
/// connection, a ThreadPool of query workers, and a pool of shared-db
/// Sessions over one EngineHandle (one Database, one buffer pool, one plan
/// cache). Protocol: see server/wire.h and docs/SERVER.md.
///
/// Threading model, in one paragraph: the I/O thread accepts, reads and
/// parses frames, answers the cheap ones inline (HELLO, shed/refused
/// requests, protocol errors) and hands QUERY / PREPARE / EXECUTE to the
/// worker pool. Workers check a Session out of the pool, stream
/// SCHEMA/ROWS/STATUS frames directly to the socket (per-connection write
/// mutex), and return the session. Cancellation flows the other way: the
/// I/O thread observes a CANCEL frame or a client disconnect and trips the
/// in-flight request's CancelToken, which the engine polls per morsel
/// batch — a vanished client stops costing CPU within one batch.
///
/// Stats are per-instance relaxed atomics, not the process-wide obs metrics,
/// so servers sharing a process never mix their counts; server_test asserts
/// against this snapshot.
class Server {
 public:
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_active = 0;
    uint64_t protocol_errors = 0;
    uint64_t queries_started = 0;  // admitted and handed to a worker
    uint64_t queries_ok = 0;
    uint64_t queries_failed = 0;   // terminal STATUS carried a non-OK code
    uint64_t rows_streamed = 0;    // rows actually written to sockets
    uint64_t cancel_frames = 0;    // CANCEL frames that matched a request
    /// Requests retired after their client vanished mid-flight: exactly one
    /// count per such request, recorded when the worker retires it, whether
    /// the I/O thread's hangup handler (which trips the CancelToken) or the
    /// worker's own failed write observed the disconnect first. The
    /// disconnect=>cancel guarantee is asserted through this counter.
    uint64_t disconnect_cancels = 0;
    // Write path: MUTATE frames staged ok, and COMMIT
    // outcomes split three ways — conflicts (retryable refusals: another
    // writer or live cursors) are not failures.
    uint64_t mutates_staged = 0;
    uint64_t commits_ok = 0;
    uint64_t commit_conflicts = 0;
    uint64_t commits_failed = 0;
    Governor::Snapshot admission;
  };

  /// Binds, listens and spawns the I/O thread and workers. Returns null and
  /// fills *status on socket errors (kInternal) or bad options
  /// (kInvalidArgument). `engine` must outlive the server.
  static std::unique_ptr<Server> Start(EngineHandle* engine,
                                       const ServerOptions& options,
                                       Status* status);

  ~Server();

  /// Stops accepting, cancels every in-flight query, closes every
  /// connection and joins all threads. Idempotent; the destructor calls it.
  void Stop();

  /// The bound port (resolves option port 0 to the actual ephemeral port).
  uint16_t port() const { return port_; }
  const ServerOptions& options() const { return options_; }

  Stats stats() const;

 private:
  struct Connection;

  Server(EngineHandle* engine, ServerOptions options);

  Status Listen();
  void EventLoop();
  void AcceptAll();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void HandleDisconnect(const std::shared_ptr<Connection>& conn);
  /// Slices complete frames off conn->inbuf; returns false on a protocol
  /// error (the connection has been dropped).
  bool ParseFrames(const std::shared_ptr<Connection>& conn);
  bool DispatchFrame(const std::shared_ptr<Connection>& conn,
                     const FrameHeader& header, const std::string& payload);
  /// Admission + handoff for QUERY / EXECUTE. `text` xor `graph`.
  void StartQuery(const std::shared_ptr<Connection>& conn,
                  uint64_t request_id, std::string text,
                  std::shared_ptr<const QueryGraph> graph,
                  const WireQueryOptions& wire);
  /// Worker-side: runs one admitted query and streams the reply.
  void RunQuery(const std::shared_ptr<Connection>& conn, uint64_t request_id,
                const std::string& text,
                std::shared_ptr<const QueryGraph> graph,
                const WireQueryOptions& wire, CancelToken token);
  /// Worker-side: parses a PREPARE and replies PREPARE_OK / STATUS.
  void RunPrepare(const std::shared_ptr<Connection>& conn,
                  uint64_t request_id, const std::string& text);
  /// I/O-thread-side: stage a MUTATE on the connection's transaction
  /// (implicit Begin on the first one) and reply STATUS inline. Resolves
  /// slot-only targets (class_id == UINT32_MAX) against the op's extent.
  void HandleMutate(const std::shared_ptr<Connection>& conn,
                    uint64_t request_id, MutationBatch batch);
  /// Busy-flag admission + worker handoff for COMMIT.
  void StartCommit(const std::shared_ptr<Connection>& conn,
                   uint64_t request_id);
  /// Worker-side: commits the connection's transaction and replies STATUS.
  void RunCommit(const std::shared_ptr<Connection>& conn, uint64_t request_id);
  /// Rolls back the connection's open transaction, if any (disconnect,
  /// server stop).
  void RollbackConnTxn(const std::shared_ptr<Connection>& conn);

  /// Serialized, timeout-bounded frame write; returns false (and poisons
  /// the connection) on failure.
  bool WriteToConnection(const std::shared_ptr<Connection>& conn,
                         const std::string& frame);
  void SendStatus(const std::shared_ptr<Connection>& conn,
                  uint64_t request_id, const Status& status,
                  uint64_t rows_produced = 0, double measured_cost = -1);
  /// Replies kInvalidArgument and drops the connection.
  void ProtocolError(const std::shared_ptr<Connection>& conn,
                     uint64_t request_id, const std::string& message);

  std::unique_ptr<Session> CheckOutSession();
  void ReturnSession(std::unique_ptr<Session> session);

  EngineHandle* engine_;
  const ServerOptions options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: kicks the I/O thread out of epoll_wait
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::thread io_thread_;
  std::unique_ptr<ThreadPool> workers_;

  Governor governor_;

  /// Idle sessions (all shared_db mode). Size == max_in_flight, so an
  /// admitted query never waits for a session.
  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;

  /// Live connections, keyed by fd. I/O thread only, except Stop().
  std::mutex connections_mu_;
  std::map<int, std::shared_ptr<Connection>> connections_;
  std::atomic<uint64_t> next_connection_id_{1};

  // Stats counters (see Stats).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> queries_started_{0};
  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_failed_{0};
  std::atomic<uint64_t> rows_streamed_{0};
  std::atomic<uint64_t> cancel_frames_{0};
  std::atomic<uint64_t> disconnect_cancels_{0};
  std::atomic<uint64_t> mutates_staged_{0};
  std::atomic<uint64_t> commits_ok_{0};
  std::atomic<uint64_t> commit_conflicts_{0};
  std::atomic<uint64_t> commits_failed_{0};
};

}  // namespace rodin::server

#endif  // RODIN_SERVER_SERVER_H_
