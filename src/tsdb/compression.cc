#include "tsdb/compression.h"

#include <bit>
#include <cstring>

namespace explainit::tsdb {

void BitWriter::WriteBits(uint64_t value, int bits) {
  if (bits <= 0) return;
  if (bits < 64) value &= (uint64_t{1} << bits) - 1;
  // Grow once, then OR whole byte-sized chunks (at most nine per call)
  // MSB-first: the encoder writes several fields per point on the write
  // path. Bytes already past bit_count_ (a restored image may carry
  // them) are ORed into, never dropped, so blocks stay byte-identical.
  const size_t end = bit_count_ + static_cast<size_t>(bits);
  if (const size_t need = (end + 7) / 8; need > bytes_.size()) {
    bytes_.resize(need);
  }
  uint8_t* data = bytes_.data();
  int remaining = bits;
  while (remaining > 0) {
    const int room = 8 - static_cast<int>(bit_count_ & 7);
    const int take = remaining < room ? remaining : room;
    remaining -= take;
    const auto chunk =
        static_cast<unsigned>(value >> remaining) & ((1u << take) - 1);
    data[bit_count_ >> 3] |= static_cast<uint8_t>(chunk << (room - take));
    bit_count_ += static_cast<size_t>(take);
  }
}

Result<uint64_t> BitReader::ReadBits(int bits) {
  if (static_cast<size_t>(bits) > bit_count_ - position_) {
    return Status::OutOfRange("bit stream exhausted");
  }
  if (bits == 0) return uint64_t{0};
  // Bits are MSB-first within each byte. Away from the end of the
  // stream one unaligned 8-byte load (plus one byte when the read spans
  // nine) serves any width up to 64; the scan decode path reads
  // millions of fields per query.
  const size_t byte = position_ >> 3;
  const int shift = static_cast<int>(position_ & 7);
  uint64_t out = 0;
  if (byte + 8 <= bytes_.size()) {
    uint64_t word = 0;
    for (size_t i = byte; i < byte + 8; ++i) word = (word << 8) | bytes_[i];
    word <<= shift;
    // The read ends inside the stream, so a ninth byte exists here.
    if (shift + bits > 64) word |= bytes_[byte + 8] >> (8 - shift);
    out = word >> (64 - bits);
  } else {
    for (size_t pos = position_; pos < position_ + bits; ++pos) {
      out = (out << 1) | ((bytes_[pos >> 3] >> (7 - (pos & 7))) & 1u);
    }
  }
  position_ += static_cast<size_t>(bits);
  return out;
}

Result<bool> BitReader::ReadBit() {
  if (position_ >= bit_count_) {
    return Status::OutOfRange("bit stream exhausted");
  }
  const bool bit = (bytes_[position_ >> 3] >> (7 - (position_ & 7))) & 1;
  ++position_;
  return bit;
}

namespace {
// Gorilla delta-of-delta buckets: (prefix, prefix_bits, value_bits).
struct DodBucket {
  uint64_t prefix;
  int prefix_bits;
  int value_bits;
  int64_t lo;
  int64_t hi;
};
constexpr DodBucket kBuckets[] = {
    {0b10, 2, 7, -63, 64},
    {0b110, 3, 9, -255, 256},
    {0b1110, 4, 12, -2047, 2048},
};
}  // namespace

Status CompressedBlock::Append(EpochSeconds timestamp, double value) {
  if (num_points_ > 0 && timestamp < prev_timestamp_) {
    return Status::InvalidArgument("timestamps must be non-decreasing");
  }
  uint64_t value_bits = 0;
  std::memcpy(&value_bits, &value, sizeof(value));

  if (num_points_ == 0) {
    first_timestamp_ = timestamp;
    prev_timestamp_ = timestamp;
    prev_delta_ = 0;
    writer_.WriteBits(static_cast<uint64_t>(timestamp), 64);
    writer_.WriteBits(value_bits, 64);
    prev_value_bits_ = value_bits;
    ++num_points_;
    return Status::OK();
  }

  // --- Timestamp: delta of delta. ---
  const int64_t delta = timestamp - prev_timestamp_;
  const int64_t dod = delta - prev_delta_;
  prev_delta_ = delta;
  prev_timestamp_ = timestamp;
  if (dod == 0) {
    writer_.WriteBit(false);
  } else {
    bool written = false;
    for (const DodBucket& b : kBuckets) {
      if (dod >= b.lo && dod <= b.hi) {
        writer_.WriteBits(b.prefix, b.prefix_bits);
        writer_.WriteBits(static_cast<uint64_t>(dod - b.lo), b.value_bits);
        written = true;
        break;
      }
    }
    if (!written) {
      writer_.WriteBits(0b1111, 4);
      writer_.WriteBits(static_cast<uint64_t>(dod), 64);
    }
  }

  // --- Value: XOR. ---
  const uint64_t x = value_bits ^ prev_value_bits_;
  prev_value_bits_ = value_bits;
  if (x == 0) {
    writer_.WriteBit(false);
  } else {
    writer_.WriteBit(true);
    int leading = std::countl_zero(x);
    int trailing = std::countr_zero(x);
    if (leading > 31) leading = 31;  // 5-bit field
    if (prev_leading_ >= 0 && leading >= prev_leading_ &&
        trailing >= prev_trailing_) {
      // Reuse the previous window.
      writer_.WriteBit(false);
      const int meaningful = 64 - prev_leading_ - prev_trailing_;
      writer_.WriteBits(x >> prev_trailing_, meaningful);
    } else {
      writer_.WriteBit(true);
      const int meaningful = 64 - leading - trailing;
      writer_.WriteBits(static_cast<uint64_t>(leading), 5);
      // meaningful in [1, 64]; store 6 bits with 64 encoded as 0... use
      // (meaningful - 1) in 6 bits.
      writer_.WriteBits(static_cast<uint64_t>(meaningful - 1), 6);
      writer_.WriteBits(x >> trailing, meaningful);
      prev_leading_ = leading;
      prev_trailing_ = trailing;
    }
  }
  ++num_points_;
  return Status::OK();
}

DecodeCheckpoint CompressedBlock::Checkpoint() const {
  DecodeCheckpoint cp;
  cp.bit_offset = writer_.bit_count();
  cp.timestamp = prev_timestamp_;
  cp.delta = prev_delta_;
  cp.value_bits = prev_value_bits_;
  cp.points = static_cast<uint32_t>(num_points_);
  cp.have_window = prev_leading_ >= 0;
  cp.leading = static_cast<uint8_t>(cp.have_window ? prev_leading_ : 0);
  cp.trailing = static_cast<uint8_t>(cp.have_window ? prev_trailing_ : 0);
  return cp;
}

Result<size_t> CompressedBlock::Decode(
    std::vector<EpochSeconds>* timestamps, std::vector<double>* values,
    const TimeRange* window, const DecodeCheckpoint* resume,
    std::vector<DecodeCheckpoint>* checkpoints) const {
  if (num_points_ == 0) return size_t{0};
  BitReader reader(writer_.bytes(), writer_.bit_count());
  DecodeCheckpoint state;
  size_t next = 0;  // index of the next point to decode
  if (resume != nullptr) {
    if (resume->points == 0 || resume->points > num_points_ ||
        resume->bit_offset > writer_.bit_count()) {
      return Status::InvalidArgument("checkpoint is not from this block");
    }
    state = *resume;
    next = resume->points;
    reader.Seek(resume->bit_offset);
  }

  size_t decoded = 0;
  for (; next < num_points_; ++next) {
    if (next == 0) {
      EXPLAINIT_ASSIGN_OR_RETURN(uint64_t ts_bits, reader.ReadBits(64));
      EXPLAINIT_ASSIGN_OR_RETURN(state.value_bits, reader.ReadBits(64));
      state.timestamp = static_cast<EpochSeconds>(ts_bits);
    } else {
      // Timestamp: delta of delta.
      EXPLAINIT_ASSIGN_OR_RETURN(bool b0, reader.ReadBit());
      int64_t dod = 0;
      if (b0) {
        int bucket = 0;
        bool found = false;
        for (; bucket < 3; ++bucket) {
          EXPLAINIT_ASSIGN_OR_RETURN(bool bn, reader.ReadBit());
          if (!bn) {
            found = true;
            break;
          }
        }
        if (found) {
          const DodBucket& bk = kBuckets[bucket];
          EXPLAINIT_ASSIGN_OR_RETURN(uint64_t raw,
                                     reader.ReadBits(bk.value_bits));
          dod = static_cast<int64_t>(raw) + bk.lo;
        } else {
          EXPLAINIT_ASSIGN_OR_RETURN(uint64_t raw, reader.ReadBits(64));
          dod = static_cast<int64_t>(raw);
        }
      }
      state.delta += dod;
      state.timestamp += state.delta;

      // Value: XOR against the previous value.
      EXPLAINIT_ASSIGN_OR_RETURN(bool changed, reader.ReadBit());
      if (changed) {
        EXPLAINIT_ASSIGN_OR_RETURN(bool new_window, reader.ReadBit());
        if (new_window) {
          EXPLAINIT_ASSIGN_OR_RETURN(uint64_t lead_raw, reader.ReadBits(5));
          EXPLAINIT_ASSIGN_OR_RETURN(uint64_t mean_raw, reader.ReadBits(6));
          if (lead_raw + mean_raw + 1 > 64) {
            return Status::ParseError("XOR window wider than 64 bits");
          }
          state.leading = static_cast<uint8_t>(lead_raw);
          state.trailing =
              static_cast<uint8_t>(64 - lead_raw - (mean_raw + 1));
          state.have_window = true;
        } else if (!state.have_window) {
          return Status::Internal("XOR window reuse before definition");
        }
        const int meaningful = 64 - state.leading - state.trailing;
        EXPLAINIT_ASSIGN_OR_RETURN(uint64_t sig, reader.ReadBits(meaningful));
        state.value_bits ^= sig << state.trailing;
      }
    }
    ++decoded;
    if (window != nullptr && state.timestamp >= window->end) break;
    if (window == nullptr || state.timestamp >= window->start) {
      timestamps->push_back(state.timestamp);
      values->push_back(std::bit_cast<double>(state.value_bits));
    }
    const size_t points = next + 1;
    if (checkpoints != nullptr && CheckpointAfter(points, num_points_)) {
      state.bit_offset = reader.position();
      state.points = static_cast<uint32_t>(points);
      checkpoints->push_back(state);
    }
  }
  return decoded;
}

namespace {
// Little-endian fixed-width helpers for the snapshot format.
template <typename T>
void PutScalar(std::vector<uint8_t>* out, T v) {
  const size_t n = out->size();
  out->resize(n + sizeof(T));
  std::memcpy(out->data() + n, &v, sizeof(T));
}

template <typename T>
bool GetScalar(const std::vector<uint8_t>& data, size_t* offset, T* v) {
  if (data.size() - *offset < sizeof(T)) return false;
  std::memcpy(v, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}
}  // namespace

void CompressedBlock::Serialize(std::vector<uint8_t>* out) const {
  PutScalar<uint64_t>(out, num_points_);
  PutScalar<int64_t>(out, first_timestamp_);
  PutScalar<int64_t>(out, prev_timestamp_);
  PutScalar<int64_t>(out, prev_delta_);
  PutScalar<uint64_t>(out, prev_value_bits_);
  PutScalar<int32_t>(out, prev_leading_);
  PutScalar<int32_t>(out, prev_trailing_);
  PutScalar<uint64_t>(out, writer_.bit_count());
  PutScalar<uint64_t>(out, writer_.bytes().size());
  out->insert(out->end(), writer_.bytes().begin(), writer_.bytes().end());
}

Result<CompressedBlock> CompressedBlock::Deserialize(
    const std::vector<uint8_t>& data, size_t* offset) {
  CompressedBlock block;
  uint64_t num_points = 0, value_bits = 0, bit_count = 0, payload = 0;
  int64_t first_ts = 0, prev_ts = 0, prev_delta = 0;
  int32_t leading = 0, trailing = 0;
  if (!GetScalar(data, offset, &num_points) ||
      !GetScalar(data, offset, &first_ts) ||
      !GetScalar(data, offset, &prev_ts) ||
      !GetScalar(data, offset, &prev_delta) ||
      !GetScalar(data, offset, &value_bits) ||
      !GetScalar(data, offset, &leading) ||
      !GetScalar(data, offset, &trailing) ||
      !GetScalar(data, offset, &bit_count) ||
      !GetScalar(data, offset, &payload)) {
    return Status::ParseError("truncated block header");
  }
  // Bounds compare against the bytes remaining, so a corrupt length
  // cannot wrap them. The first point takes 128 bits, every later one
  // at least 2 (a timestamp and a value control bit).
  if (payload > data.size() - *offset || bit_count > payload * 8) {
    return Status::ParseError("truncated block payload");
  }
  if (num_points > 0 &&
      (bit_count < 128 || num_points - 1 > (bit_count - 128) / 2)) {
    return Status::ParseError("block point count exceeds its payload");
  }
  block.num_points_ = num_points;
  block.first_timestamp_ = first_ts;
  block.prev_timestamp_ = prev_ts;
  block.prev_delta_ = prev_delta;
  block.prev_value_bits_ = value_bits;
  block.prev_leading_ = leading;
  block.prev_trailing_ = trailing;
  std::vector<uint8_t> bytes(data.begin() + *offset,
                             data.begin() + *offset + payload);
  *offset += payload;
  block.writer_.Restore(std::move(bytes), bit_count);
  return block;
}

}  // namespace explainit::tsdb
