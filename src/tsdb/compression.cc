#include "tsdb/compression.h"

#include <bit>
#include <cstring>

namespace explainit::tsdb {

void BitWriter::WriteBits(uint64_t value, int bits) {
  for (int i = bits - 1; i >= 0; --i) {
    const bool bit = (value >> i) & 1;
    const size_t byte_idx = bit_count_ / 8;
    if (byte_idx >= bytes_.size()) bytes_.push_back(0);
    if (bit) bytes_[byte_idx] |= static_cast<uint8_t>(1u << (7 - bit_count_ % 8));
    ++bit_count_;
  }
}

Result<uint64_t> BitReader::ReadBits(int bits) {
  if (position_ + static_cast<size_t>(bits) > bit_count_) {
    return Status::OutOfRange("bit stream exhausted");
  }
  // Byte-chunked extraction (bits are MSB-first within each byte): a
  // 64-bit read touches at most 9 bytes instead of looping per bit —
  // the scan decode path reads millions of bits per query.
  uint64_t out = 0;
  int remaining = bits;
  while (remaining > 0) {
    const uint8_t byte = bytes_[position_ >> 3];
    const int avail = 8 - static_cast<int>(position_ & 7);
    const int take = remaining < avail ? remaining : avail;
    const uint8_t chunk =
        static_cast<uint8_t>(byte >> (avail - take)) &
        static_cast<uint8_t>((1u << take) - 1);
    out = (out << take) | chunk;
    position_ += static_cast<size_t>(take);
    remaining -= take;
  }
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

Result<std::vector<std::pair<EpochSeconds, double>>> CompressedBlock::Decode()
    const {
  std::vector<std::pair<EpochSeconds, double>> out;
  if (num_points_ == 0) return out;
  out.reserve(num_points_);
  BitReader reader(writer_.bytes(), writer_.bit_count());

  EXPLAINIT_ASSIGN_OR_RETURN(uint64_t ts_bits, reader.ReadBits(64));
  EXPLAINIT_ASSIGN_OR_RETURN(uint64_t val_bits, reader.ReadBits(64));
  EpochSeconds ts = static_cast<EpochSeconds>(ts_bits);
  double value = 0.0;
  std::memcpy(&value, &val_bits, sizeof(value));
  out.emplace_back(ts, value);

  int64_t delta = 0;
  uint64_t prev_bits = val_bits;
  int leading = 0, trailing = 0;
  bool have_window = false;

  for (size_t i = 1; i < num_points_; ++i) {
    // Timestamp.
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
    delta += dod;
    ts += delta;

    // Value.
    EXPLAINIT_ASSIGN_OR_RETURN(bool changed, reader.ReadBit());
    uint64_t x = 0;
    if (changed) {
      EXPLAINIT_ASSIGN_OR_RETURN(bool new_window, reader.ReadBit());
      if (new_window) {
        EXPLAINIT_ASSIGN_OR_RETURN(uint64_t lead_raw, reader.ReadBits(5));
        EXPLAINIT_ASSIGN_OR_RETURN(uint64_t mean_raw, reader.ReadBits(6));
        leading = static_cast<int>(lead_raw);
        const int meaningful = static_cast<int>(mean_raw) + 1;
        trailing = 64 - leading - meaningful;
        have_window = true;
        EXPLAINIT_ASSIGN_OR_RETURN(uint64_t sig, reader.ReadBits(meaningful));
        x = sig << trailing;
      } else {
        if (!have_window) {
          return Status::Internal("XOR window reuse before definition");
        }
        const int meaningful = 64 - leading - trailing;
        EXPLAINIT_ASSIGN_OR_RETURN(uint64_t sig, reader.ReadBits(meaningful));
        x = sig << trailing;
      }
    }
    prev_bits ^= x;
    std::memcpy(&value, &prev_bits, sizeof(value));
    out.emplace_back(ts, value);
  }
  return out;
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
