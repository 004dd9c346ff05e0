// Concurrent SQL/EXPLAIN front-end over TCP: N sessions share ONE
// core::Engine (catalog, functions, tiered store) and ONE process-wide
// exec::WorkerPool — no per-session thread pools, asserted by the
// integration test via WorkerPool::constructions().
//
// Concurrency model
//   - One accept thread; one lightweight thread per session driving a
//     blocking read loop (sessions are bounded by max_sessions, so the
//     thread count is too). Query *execution* parallelism comes from the
//     shared worker pool, not from session threads.
//   - Each session owns a private sql::Executor built over the engine's
//     catalog + functions: per-session statistics and cancellation state,
//     shared everything else. Results are byte-identical to a direct
//     Engine::Query (the server bench gates on this).
//
// Admission control
//   - max_sessions bounds concurrent connections; over it the server
//     replies kBusy and closes (sessions_rejected).
//   - max_concurrent_queries bounds statements executing at once; at most
//     max_queued_queries more wait at the gate, anything beyond gets an
//     immediate kBusy (backpressure, never unbounded queueing).
//
// Deadlines and cancellation
//   - kQuery carries deadline_ms; the session arms a per-query
//     exec::CancelToken that the executor checks at every operator batch
//     boundary and the ranking fan-out checks per hypothesis. Expiry
//     surfaces as a kError frame with kDeadlineExceeded.
//   - Stop() cancels every in-flight token (kCancelled), wakes the
//     admission gate, shuts down every socket and joins all threads.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "exec/cancel.h"
#include "exec/worker_pool.h"
#include "monitor/monitor.h"

namespace explainit::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back via Server::port().
  uint16_t port = 0;
  /// Concurrent session cap; further connects get kBusy + close.
  size_t max_sessions = 64;
  /// Statements executing at once across all sessions; 0 = the worker
  /// pool's thread count.
  size_t max_concurrent_queries = 0;
  /// Statements allowed to wait at the admission gate before kBusy.
  size_t max_queued_queries = 16;
  /// Degree of SQL parallelism per statement (executor knob); 1 = serial.
  size_t sql_parallelism = 1;
  /// Shared pool; null = exec::WorkerPool::Global().
  exec::WorkerPool* worker_pool = nullptr;
  /// Standing-query service (borrowed; must outlive the server). When
  /// set, every statement routes through MonitorService::Query, so
  /// clients can register standing EXPLAINs (EVERY/TRIGGERED/INTO), DROP
  /// MONITOR and SHOW MONITORS over the wire; result frames then report
  /// the live monitor count. Null = monitor statements are errors.
  monitor::MonitorService* monitors = nullptr;
};

/// Monotonic counters; read via Server::stats() at any time.
struct ServerStats {
  uint64_t sessions_accepted = 0;
  uint64_t sessions_rejected = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_error = 0;   // failures (incl. expiry, oversized replies)
  uint64_t queries_busy = 0;    // admission-gate rejections
};

class Server {
 public:
  /// The engine must outlive the server. Does not listen yet — Start().
  explicit Server(core::Engine* engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the accept thread. After an OK return,
  /// port() is the bound port.
  Status Start();

  /// Cancels in-flight queries, closes every socket, joins all threads.
  /// Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  ServerStats stats() const;

 private:
  struct Session {
    int fd = -1;
    std::thread thread;
  };

  void AcceptLoop();
  void SessionLoop(int fd);
  /// Handles one kQuery payload; returns the reply frame to send.
  std::vector<uint8_t> HandleQuery(sql::Executor& executor,
                                   const uint8_t* payload, size_t size);
  /// Blocks at the admission gate. Returns false for kBusy (queue full or
  /// server stopping).
  bool AdmitQuery();
  void ReleaseQuery();

  core::Engine* engine_;
  ServerOptions options_;
  exec::WorkerPool* pool_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mutex_;
  std::condition_variable gate_cv_;
  bool started_ = false;
  bool stopping_ = false;
  size_t active_sessions_ = 0;
  size_t running_queries_ = 0;
  size_t queued_queries_ = 0;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::unordered_set<exec::CancelToken*> active_tokens_;
  ServerStats stats_;
};

}  // namespace explainit::server
