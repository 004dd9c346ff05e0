// Wire protocol of the concurrent SQL/EXPLAIN server: length-prefixed
// binary frames over TCP, in the style of the exec/ipc.h matrix codec
// (little-endian, magic-tagged, every decode-side size checked against
// the actual buffer before any arithmetic or allocation).
//
// Frame layout (all integers little-endian):
//
//   u32 magic ("EXSQ") | u8 type | u32 payload_len | payload bytes
//
// Payloads by type:
//   kQuery  u32 deadline_ms (0 = none) | u32 sql_len | sql bytes
//   kResult u64 latency_us | u32 parallelism | u64 rows_output |
//           u64 rows_scanned | u8 statement_kind | u32 active_monitors |
//           encoded table
//   kError  i32 status_code | u32 msg_len | msg bytes
//   kBusy   (empty) — admission control rejected the query
//   kPing   (empty)           kPong  (empty)
//
// Table encoding: u32 ncols | percol{ u32 name_len | name | u8 dtype } |
// u64 nrows | row-major cells. Each cell is a u8 DataType tag followed by
// the value (f64 / i64 / u32-prefixed string / u32-counted map of
// { u32 key_len | key | cell }). Cells are self-describing so dynamically
// typed columns (declared type advisory, see table/table.h) round-trip.
//
// Every length field arriving off the socket is untrusted: ByteReader
// refuses reads past the buffer end, element counts are validated against
// the bytes actually remaining (one cell costs >= 1 byte) before any
// reservation, map recursion is depth-capped, and whole frames are capped
// at kMaxFramePayload. Decoders return InvalidArgument — never throw,
// never over-read.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace explainit::server {

constexpr uint32_t kFrameMagic = 0x51535845;  // "EXSQ" in LE byte order
/// Hard cap on one frame's payload. A hostile u32 length can claim up to
/// 4 GiB. Senders check it before encoding: the server answers an
/// oversized result with an OutOfRange error frame, and the client
/// refuses to send an oversized request.
constexpr uint32_t kMaxFramePayload = 64u << 20;
/// magic + type + payload_len.
constexpr size_t kFrameHeaderBytes =
    sizeof(uint32_t) + sizeof(uint8_t) + sizeof(uint32_t);
/// Nested-map depth cap for cell decoding (tags and feature vectors are
/// one level deep in practice).
constexpr int kMaxMapDepth = 8;

enum class MessageType : uint8_t {
  kQuery = 1,
  kResult = 2,
  kError = 3,
  kBusy = 4,
  kPing = 5,
  kPong = 6,
};

struct QueryRequest {
  uint32_t deadline_ms = 0;  // per-query deadline; 0 = none
  std::string sql;
};

struct QueryReply {
  uint64_t latency_us = 0;   // server-side wall time for the statement
  uint32_t parallelism = 1;  // degree the statement executed with
  uint64_t rows_output = 0;
  uint64_t rows_scanned = 0;
  uint8_t statement_kind = 0;  // sql::StatementKind
  /// Standing queries registered on the server's monitor service at
  /// reply time (0 when no service is attached).
  uint32_t active_monitors = 0;
  table::Table table;
};

struct ErrorReply {
  int32_t code = 0;  // StatusCode
  std::string message;
};

/// Little-endian append-only buffer builder.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { AppendLE(&v, sizeof(v)); }
  void U32(uint32_t v) { AppendLE(&v, sizeof(v)); }
  void U64(uint64_t v) { AppendLE(&v, sizeof(v)); }
  void I32(int32_t v) { AppendLE(&v, sizeof(v)); }
  void I64(int64_t v) { AppendLE(&v, sizeof(v)); }
  void F64(double v) { AppendLE(&v, sizeof(v)); }
  /// u32 length prefix + bytes.
  void Str(std::string_view s);

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void AppendLE(const void* p, size_t n);
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a borrowed buffer. Every
/// accessor returns false (without advancing) when the remaining bytes
/// are too short; decoders turn that into InvalidArgument.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : p_(data), size_(size) {}

  bool U8(uint8_t* v) { return Copy(v, sizeof(*v)); }
  bool U16(uint16_t* v) { return Copy(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Copy(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Copy(v, sizeof(*v)); }
  bool I32(int32_t* v) { return Copy(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Copy(v, sizeof(*v)); }
  bool F64(double* v) { return Copy(v, sizeof(*v)); }
  /// u32 length prefix + bytes; the length is validated against the
  /// remaining buffer before any allocation.
  bool Str(std::string* s);

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  bool Copy(void* out, size_t n);
  const uint8_t* p_;
  size_t size_;
  size_t pos_ = 0;
};

/// Wraps a payload into a full frame (header + payload).
std::vector<uint8_t> EncodeFrame(MessageType type,
                                 const std::vector<uint8_t>& payload);

struct FrameHeader {
  MessageType type = MessageType::kPing;
  uint32_t payload_len = 0;
};

/// Parses and validates the 9-byte frame header: magic, a known type,
/// and payload_len <= kMaxFramePayload.
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size);

/// Table codec (shared by kResult and any future table-carrying frame).
void EncodeTable(const table::Table& t, ByteWriter* w);
Result<table::Table> DecodeTable(ByteReader* r);

std::vector<uint8_t> EncodeQuery(const QueryRequest& q);
Result<QueryRequest> DecodeQuery(const uint8_t* payload, size_t size);

std::vector<uint8_t> EncodeResult(const QueryReply& r);
Result<QueryReply> DecodeResult(const uint8_t* payload, size_t size);

std::vector<uint8_t> EncodeError(const ErrorReply& e);
Result<ErrorReply> DecodeError(const uint8_t* payload, size_t size);

}  // namespace explainit::server
