// Blocking client for the SQL/EXPLAIN server protocol. One TCP
// connection = one session on the server; a Client is single-threaded by
// design (one outstanding request), concurrency comes from opening more
// clients.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "server/protocol.h"

namespace explainit::server {

class Client {
 public:
  /// Connects and verifies the server accepted the session (a server at
  /// its session cap replies kBusy before closing; that surfaces as
  /// Unavailable on the first request).
  static Result<Client> Connect(const std::string& host, uint16_t port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Runs one statement. deadline_ms = 0 means no deadline. Server-side
  /// failures come back as the transported Status (ParseError,
  /// DeadlineExceeded, ...); admission rejection as Unavailable. A
  /// request or reply over kMaxFramePayload is OutOfRange and leaves the
  /// connection usable.
  Result<QueryReply> Query(std::string_view sql, uint32_t deadline_ms = 0);

  /// Liveness round-trip.
  Status Ping();

 private:
  explicit Client(int fd) : fd_(fd) {}
  /// Sends one frame and reads the reply frame (header + payload).
  Result<std::vector<uint8_t>> RoundTrip(MessageType type,
                                         const std::vector<uint8_t>& payload,
                                         MessageType* reply_type);
  int fd_ = -1;
};

}  // namespace explainit::server
