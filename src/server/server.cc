#include "server/server.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/time_util.h"
#include "server/protocol.h"

namespace explainit::server {

namespace {

/// send() the whole buffer, restarting on EINTR / short writes.
/// MSG_NOSIGNAL: a peer that hung up must surface as an error, not
/// SIGPIPE (which would kill the whole server process).
bool SendAll(int fd, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// recv() exactly `size` bytes; false on EOF or error.
bool RecvAll(int fd, uint8_t* data, size_t size) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n == 0) return false;  // orderly shutdown
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

std::vector<uint8_t> ErrorFrame(const Status& status) {
  return EncodeFrame(MessageType::kError,
                     EncodeError({static_cast<int32_t>(status.code()),
                                  status.message()}));
}

}  // namespace

Server::Server(core::Engine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      pool_(options_.worker_pool != nullptr ? options_.worker_pool
                                            : &exec::WorkerPool::Global()) {
  if (options_.max_sessions == 0) options_.max_sessions = 1;
  if (options_.max_concurrent_queries == 0) {
    options_.max_concurrent_queries = pool_->num_threads();
  }
}

Server::~Server() { Stop(); }

Status Server::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_) return Status::FailedPrecondition("server already started");
    started_ = true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st =
        Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status st =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || !started_) {
      if (!started_) return;
      // Already stopping from another caller; fall through to join below
      // only from the first caller (sessions_ is drained exactly once).
    }
    stopping_ = true;
    // Trip every in-flight query so execution unwinds at the next batch
    // boundary instead of holding its session thread open.
    for (exec::CancelToken* token : active_tokens_) token->Cancel();
    // Wake queries parked at the admission gate; they will see stopping_.
    gate_cv_.notify_all();
    // Unblock every session's recv().
    for (auto& s : sessions_) {
      if (s->fd >= 0) ::shutdown(s->fd, SHUT_RDWR);
    }
    sessions.swap(sessions_);
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the blocked accept()
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& s : sessions) {
    if (s->thread.joinable()) s->thread.join();
  }
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Server::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listening socket shut down (Stop) or fatal error
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || active_sessions_ >= options_.max_sessions) {
      // Session cap: tell the client it is backpressure, not an error.
      const std::vector<uint8_t> busy = EncodeFrame(MessageType::kBusy, {});
      SendAll(fd, busy.data(), busy.size());
      ::close(fd);
      ++stats_.sessions_rejected;
      continue;
    }
    ++stats_.sessions_accepted;
    ++active_sessions_;
    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session* raw = session.get();
    sessions_.push_back(std::move(session));
    raw->thread = std::thread([this, fd] { SessionLoop(fd); });
  }
}

void Server::SessionLoop(int fd) {
  // Private executor per session: statistics and the cancel token are
  // session state; catalog, functions, store and worker pool are shared.
  sql::Executor executor(&engine_->catalog(), &engine_->functions(),
                         options_.sql_parallelism, pool_);
  uint8_t header[kFrameHeaderBytes];
  while (true) {
    if (!RecvAll(fd, header, sizeof(header))) break;
    auto frame = DecodeFrameHeader(header, sizeof(header));
    if (!frame.ok()) {
      // Desynchronised stream: report and hang up (no way to resync).
      const std::vector<uint8_t> reply = ErrorFrame(frame.status());
      SendAll(fd, reply.data(), reply.size());
      break;
    }
    std::vector<uint8_t> payload(frame->payload_len);
    if (frame->payload_len != 0 &&
        !RecvAll(fd, payload.data(), payload.size())) {
      break;
    }
    std::vector<uint8_t> reply;
    switch (frame->type) {
      case MessageType::kPing:
        reply = EncodeFrame(MessageType::kPong, {});
        break;
      case MessageType::kQuery:
        reply = HandleQuery(executor, payload.data(), payload.size());
        break;
      default:
        reply = ErrorFrame(Status::InvalidArgument(
            "unexpected frame type from client"));
        break;
    }
    if (!SendAll(fd, reply.data(), reply.size())) break;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  --active_sessions_;
  // Mark the fd closed under the lock so Stop() never shuts down a
  // recycled descriptor; the Session entry itself is joined by Stop().
  for (auto& s : sessions_) {
    if (s->fd == fd) {
      s->fd = -1;
      break;
    }
  }
  ::close(fd);
}

bool Server::AdmitQuery() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (running_queries_ < options_.max_concurrent_queries && !stopping_) {
    ++running_queries_;
    return true;
  }
  if (queued_queries_ >= options_.max_queued_queries || stopping_) {
    ++stats_.queries_busy;
    return false;
  }
  ++queued_queries_;
  gate_cv_.wait(lock, [this] {
    return stopping_ || running_queries_ < options_.max_concurrent_queries;
  });
  --queued_queries_;
  if (stopping_) {
    ++stats_.queries_busy;
    return false;
  }
  ++running_queries_;
  return true;
}

void Server::ReleaseQuery() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --running_queries_;
  }
  gate_cv_.notify_one();
}

std::vector<uint8_t> Server::HandleQuery(sql::Executor& executor,
                                         const uint8_t* payload,
                                         size_t size) {
  auto request = DecodeQuery(payload, size);
  if (!request.ok()) return ErrorFrame(request.status());
  if (!AdmitQuery()) return EncodeFrame(MessageType::kBusy, {});

  exec::CancelToken token;
  if (request->deadline_ms != 0) {
    token.SetDeadlineAfter(std::chrono::milliseconds(request->deadline_ms));
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Re-check stopping_ while holding the same mutex Stop()'s cancel
    // loop takes: a query admitted just before Stop() flipped the flag
    // must not register a token that loop already walked past — it would
    // run to completion uncancelled while Stop() waits to join this
    // session's thread.
    if (stopping_) {
      ++stats_.queries_busy;
      lock.unlock();
      ReleaseQuery();
      return EncodeFrame(MessageType::kBusy, {});
    }
    active_tokens_.insert(&token);
  }
  executor.set_cancel_token(&token);
  const double t0 = MonotonicSeconds();
  auto result = options_.monitors != nullptr
                    ? options_.monitors->Query(executor, request->sql)
                    : engine_->QueryWith(executor, request->sql);
  const double elapsed = MonotonicSeconds() - t0;
  executor.set_cancel_token(nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_tokens_.erase(&token);
  }
  ReleaseQuery();

  if (!result.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.queries_error;
    return ErrorFrame(result.status());
  }
  // Encode outside the lock: result frames can be large.
  QueryReply reply;
  reply.latency_us = static_cast<uint64_t>(elapsed * 1e6);
  reply.parallelism = static_cast<uint32_t>(executor.parallelism());
  reply.rows_output = result->table.num_rows();
  reply.rows_scanned = result->stats.rows_scanned;
  reply.statement_kind = static_cast<uint8_t>(result->kind);
  reply.active_monitors =
      options_.monitors != nullptr
          ? static_cast<uint32_t>(options_.monitors->active_monitors())
          : 0;
  reply.table = std::move(result->table);
  const std::vector<uint8_t> encoded = EncodeResult(reply);
  // A reply over the frame cap would be refused by every client as a
  // hostile frame: answer with a typed error and keep the session.
  const bool fits = encoded.size() <= kMaxFramePayload;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++(fits ? stats_.queries_ok : stats_.queries_error);
  }
  if (!fits) {
    return ErrorFrame(Status::OutOfRange(
        "result of " + std::to_string(encoded.size()) +
        " bytes exceeds the frame cap of " +
        std::to_string(kMaxFramePayload) + " bytes"));
  }
  return EncodeFrame(MessageType::kResult, encoded);
}

}  // namespace explainit::server
