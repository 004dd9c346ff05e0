// Gorilla-style time series compression (Pelkonen et al., VLDB'15 — cited
// by the paper as a representative TSDB): delta-of-delta encoded
// timestamps and XOR-encoded doubles over a bit stream.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/time_util.h"

namespace explainit::tsdb {

/// Append-only bit stream writer.
class BitWriter {
 public:
  /// Appends the low `bits` bits of `value` (most significant first).
  void WriteBits(uint64_t value, int bits);
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  /// Total bits written.
  size_t bit_count() const { return bit_count_; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

  /// Restores a writer from a byte image (for snapshot reload).
  void Restore(std::vector<uint8_t> bytes, size_t bit_count) {
    bytes_ = std::move(bytes);
    bit_count_ = bit_count;
  }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_count_ = 0;
};

/// Sequential bit stream reader.
class BitReader {
 public:
  BitReader(const std::vector<uint8_t>& bytes, size_t bit_count)
      : bytes_(bytes), bit_count_(bit_count) {}

  /// Reads `bits` bits; fails with OutOfRange past the end.
  Result<uint64_t> ReadBits(int bits);
  Result<bool> ReadBit();
  size_t bits_remaining() const { return bit_count_ - position_; }
  /// Bits consumed so far.
  size_t position() const { return position_; }
  /// Moves the read cursor to bit `position` (at most the bit count).
  void Seek(size_t position) { position_ = position; }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t bit_count_;
  size_t position_ = 0;
};

/// The full decoder state after one point of a block: enough to resume
/// decoding at the next point without reading any bit before it. It is
/// also exactly the encoder's state after appending that point.
struct DecodeCheckpoint {
  uint64_t bit_offset = 0;     // bits consumed through this point
  EpochSeconds timestamp = 0;  // this point's timestamp
  int64_t delta = 0;           // timestamp - previous timestamp
  uint64_t value_bits = 0;     // this point's value, bit for bit
  uint32_t points = 0;         // points decoded through this one
  uint8_t leading = 0;         // XOR window (valid when have_window)
  uint8_t trailing = 0;
  bool have_window = false;
};
static_assert(sizeof(DecodeCheckpoint) == 40,
              "the seek index budget below assumes 40-byte checkpoints");

/// A block records a checkpoint after every kCheckpointInterval-th point
/// when asked to (SealedSegment keeps them as its seek index). At 40
/// bytes per checkpoint that is 0.31 bytes per point.
inline constexpr size_t kCheckpointInterval = 128;

/// True when a block of `total` points records a checkpoint after its
/// `points`-th point (never after the last one, which nothing follows).
inline bool CheckpointAfter(size_t points, size_t total) {
  return points % kCheckpointInterval == 0 && points < total &&
         points <= UINT32_MAX;
}

/// A compressed block of (timestamp, value) points for one series.
///
/// Timestamps use delta-of-delta encoding with the Gorilla bucket scheme;
/// values use XOR encoding with leading/meaningful-bit reuse.
class CompressedBlock {
 public:
  /// Appends a point; timestamps must be non-decreasing.
  Status Append(EpochSeconds timestamp, double value);

  size_t num_points() const { return num_points_; }
  /// Compressed payload size in bytes.
  size_t byte_size() const { return writer_.bytes().size(); }

  /// Timestamp extent (valid only when num_points() > 0). Timestamps are
  /// appended non-decreasing, so these bound every point in the block.
  EpochSeconds first_timestamp() const { return first_timestamp_; }
  EpochSeconds last_timestamp() const { return prev_timestamp_; }

  /// Decodes points in one forward pass, appending them to `timestamps`
  /// and `values`, and returns how many points it decoded.
  ///
  /// - `window` (optional) keeps only the points inside it and stops at
  ///   the first timestamp >= window->end. That point is decoded and
  ///   counted but not kept; timestamps never decrease, so no later
  ///   point can be inside the window.
  /// - `resume` (optional) starts after the point it describes instead
  ///   of at the first point. It must come from this block.
  /// - `checkpoints` (optional) receives the decoder state after every
  ///   kCheckpointInterval-th point, except the last point.
  Result<size_t> Decode(std::vector<EpochSeconds>* timestamps,
                        std::vector<double>* values,
                        const TimeRange* window = nullptr,
                        const DecodeCheckpoint* resume = nullptr,
                        std::vector<DecodeCheckpoint>* checkpoints =
                            nullptr) const;

  /// The encoder's state after the last appended point (valid only when
  /// num_points() > 0), which is the decoder's state after that point.
  DecodeCheckpoint Checkpoint() const;

  /// Appends a self-contained binary image of this block (including the
  /// encoder state, so appends can continue after a reload) to `out`.
  void Serialize(std::vector<uint8_t>* out) const;

  /// Parses a block from `data` starting at *offset; advances *offset.
  static Result<CompressedBlock> Deserialize(const std::vector<uint8_t>& data,
                                             size_t* offset);

 private:
  BitWriter writer_;
  size_t num_points_ = 0;
  EpochSeconds first_timestamp_ = 0;
  EpochSeconds prev_timestamp_ = 0;
  int64_t prev_delta_ = 0;
  uint64_t prev_value_bits_ = 0;
  int prev_leading_ = -1;  // -1: no reusable window yet
  int prev_trailing_ = 0;
};

}  // namespace explainit::tsdb
