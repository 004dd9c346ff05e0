#include "server/client.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace explainit::server {

namespace {

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

bool RecvAll(int fd, uint8_t* data, size_t size) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Result<Client> Client::Connect(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad server address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status st =
        Status::IOError(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Client(fd);
}

Client::Client(Client&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::vector<uint8_t>> Client::RoundTrip(
    MessageType type, const std::vector<uint8_t>& payload,
    MessageType* reply_type) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  if (payload.size() > kMaxFramePayload) {
    // The server would drop the connection on such a header; refuse to
    // send it and keep the connection usable.
    return Status::OutOfRange("request of " + std::to_string(payload.size()) +
                              " bytes exceeds the frame cap of " +
                              std::to_string(kMaxFramePayload) + " bytes");
  }
  const std::vector<uint8_t> frame = EncodeFrame(type, payload);
  if (!SendAll(fd_, frame.data(), frame.size())) {
    return Status::IOError("send failed (server closed the connection?)");
  }
  uint8_t header[kFrameHeaderBytes];
  if (!RecvAll(fd_, header, sizeof(header))) {
    return Status::IOError("connection closed while awaiting reply");
  }
  auto parsed = DecodeFrameHeader(header, sizeof(header));
  EXPLAINIT_RETURN_IF_ERROR(parsed.status());
  std::vector<uint8_t> reply(parsed->payload_len);
  if (parsed->payload_len != 0 &&
      !RecvAll(fd_, reply.data(), reply.size())) {
    return Status::IOError("connection closed mid-reply");
  }
  *reply_type = parsed->type;
  return reply;
}

Result<QueryReply> Client::Query(std::string_view sql, uint32_t deadline_ms) {
  QueryRequest request;
  request.deadline_ms = deadline_ms;
  request.sql.assign(sql);
  MessageType reply_type;
  auto payload = RoundTrip(MessageType::kQuery, EncodeQuery(request),
                           &reply_type);
  EXPLAINIT_RETURN_IF_ERROR(payload.status());
  switch (reply_type) {
    case MessageType::kResult:
      return DecodeResult(payload->data(), payload->size());
    case MessageType::kBusy:
      return Status::Unavailable("server busy (admission control)");
    case MessageType::kError: {
      auto err = DecodeError(payload->data(), payload->size());
      EXPLAINIT_RETURN_IF_ERROR(err.status());
      return Status::FromCode(err->code, std::move(err->message));
    }
    default:
      return Status::Internal("unexpected reply frame type");
  }
}

Status Client::Ping() {
  MessageType reply_type;
  auto payload = RoundTrip(MessageType::kPing, {}, &reply_type);
  EXPLAINIT_RETURN_IF_ERROR(payload.status());
  if (reply_type == MessageType::kBusy) {
    return Status::Unavailable("server busy (session cap)");
  }
  if (reply_type != MessageType::kPong) {
    return Status::Internal("unexpected reply to ping");
  }
  return Status::OK();
}

}  // namespace explainit::server
