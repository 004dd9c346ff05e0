#include "tsdb/compression.h"

#include <gtest/gtest.h>

#include <bit>
#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "tsdb/segment.h"

namespace explainit::tsdb {
namespace {

using Points = std::vector<std::pair<EpochSeconds, double>>;

// Decodes every point of `block` (the unbounded form) as pairs.
Result<Points> DecodeAll(const CompressedBlock& block) {
  std::vector<EpochSeconds> ts;
  std::vector<double> vs;
  EXPLAINIT_ASSIGN_OR_RETURN(size_t decoded, block.Decode(&ts, &vs));
  if (decoded != block.num_points() || ts.size() != decoded) {
    return Status::Internal("unbounded decode skipped points");
  }
  Points out;
  for (size_t i = 0; i < ts.size(); ++i) out.emplace_back(ts[i], vs[i]);
  return out;
}

TEST(BitStreamTest, RoundTripMixedWidths) {
  BitWriter w;
  w.WriteBits(0b101, 3);
  w.WriteBit(true);
  w.WriteBits(0xDEADBEEFCAFEBABEULL, 64);
  w.WriteBits(0, 5);
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_EQ(r.ReadBits(3).value(), 0b101u);
  EXPECT_TRUE(r.ReadBit().value());
  EXPECT_EQ(r.ReadBits(64).value(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(r.ReadBits(5).value(), 0u);
  EXPECT_EQ(r.bits_remaining(), 0u);
}

TEST(BitStreamTest, RandomWidthsRoundTripAtEveryAlignment) {
  // Long enough that most reads take the word-load path and the last
  // ones the byte-wise tail, at every bit alignment.
  Rng rng(5);
  std::vector<std::pair<uint64_t, int>> fields;
  BitWriter w;
  for (int i = 0; i < 2000; ++i) {
    const int bits = 1 + static_cast<int>(rng.UniformInt(64));
    uint64_t v = (rng.UniformInt(1ull << 32) << 32) | rng.UniformInt(1ull << 32);
    if (bits < 64) v &= (1ull << bits) - 1;
    w.WriteBits(v, bits);
    fields.emplace_back(v, bits);
  }
  BitReader r(w.bytes(), w.bit_count());
  for (const auto& [v, bits] : fields) {
    auto got = r.ReadBits(bits);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, v) << bits;
  }
  EXPECT_EQ(r.bits_remaining(), 0u);
  EXPECT_FALSE(r.ReadBits(1).ok());
}

TEST(BitStreamTest, ReadPastEndFails) {
  BitWriter w;
  w.WriteBits(1, 1);
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_TRUE(r.ReadBit().ok());
  EXPECT_FALSE(r.ReadBit().ok());
}

// The bit-at-a-time writer BitWriter replaced, kept as the reference
// the byte-chunked one must match byte for byte.
class ReferenceBitWriter {
 public:
  void WriteBits(uint64_t value, int bits) {
    for (int i = bits - 1; i >= 0; --i) {
      const bool bit = (value >> i) & 1;
      const size_t byte_idx = bit_count_ / 8;
      if (byte_idx >= bytes_.size()) bytes_.push_back(0);
      if (bit) {
        bytes_[byte_idx] |= static_cast<uint8_t>(1u << (7 - bit_count_ % 8));
      }
      ++bit_count_;
    }
  }
  void Restore(std::vector<uint8_t> bytes, size_t bit_count) {
    bytes_ = std::move(bytes);
    bit_count_ = bit_count;
  }
  size_t bit_count() const { return bit_count_; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_count_ = 0;
};

TEST(BitStreamTest, WriterMatchesTheBitAtATimeReference) {
  // Widths 0..64 with values that carry set bits above the width (the
  // writer keeps only the low `width`), from every starting bit offset.
  Rng rng(23);
  for (int offset = 0; offset < 8; ++offset) {
    BitWriter w;
    ReferenceBitWriter ref;
    const uint64_t lead = rng.Next();
    w.WriteBits(lead, offset);
    ref.WriteBits(lead, offset);
    ASSERT_EQ(w.bit_count(), static_cast<size_t>(offset));
    ASSERT_EQ(w.bytes(), ref.bytes());
    for (int i = 0; i < 3000; ++i) {
      const int width = static_cast<int>(rng.UniformInt(65));
      const uint64_t value = rng.Next() | (width < 64 ? ~uint64_t{0} << width
                                                      : uint64_t{0});
      w.WriteBits(value, width);
      ref.WriteBits(value, width);
      ASSERT_EQ(w.bit_count(), ref.bit_count()) << offset << "/" << i;
      ASSERT_EQ(w.bytes(), ref.bytes()) << offset << "/" << i;
    }
  }
}

TEST(BitStreamTest, RestoredWriterOrsIntoTrailingPayloadBytes) {
  // A restored image may carry bytes past its bit count (a snapshot's
  // payload length is only bounded below); both writers OR into them.
  const std::vector<uint8_t> image = {0xA5, 0x80, 0x0F, 0x00};
  for (size_t bits = 9; bits <= 16; ++bits) {
    BitWriter w;
    ReferenceBitWriter ref;
    w.Restore(image, bits);
    ref.Restore(image, bits);
    for (const auto& [value, width] :
         std::vector<std::pair<uint64_t, int>>{{0x5A, 7}, {~0ull, 33}}) {
      w.WriteBits(value, width);
      ref.WriteBits(value, width);
    }
    EXPECT_EQ(w.bit_count(), ref.bit_count());
    EXPECT_EQ(w.bytes(), ref.bytes()) << bits;
  }
}

TEST(CompressedBlockTest, SerializedImageIsPinned) {
  // One block covering every encoder branch: the first point's 128
  // bits; delta-of-delta 0, the 7/9/12-bit buckets (one negative) and
  // the 64-bit escape both ways; XOR zero, window reuse (one with the
  // 5-bit leading-zero field capped at 31) and new windows. The image is
  // the snapshot format's block payload, so an encoder change that moves
  // one bit fails here.
  const double ulp_off = std::bit_cast<double>(
      std::bit_cast<uint64_t>(4.5) ^ uint64_t{1});
  const EpochSeconds ts[] = {1000,   1060,   1120,   1380,  3640,
                             105900, 105960, 106020, 106079};
  const double vs[] = {1.0, 1.0, 2.0, 4.0, 4.5, ulp_off, ulp_off, 4.5, -4.5};
  CompressedBlock block;
  for (size_t i = 0; i < std::size(ts); ++i) {
    ASSERT_TRUE(block.Append(ts[i], vs[i]).ok());
  }
  const std::vector<uint8_t> golden = {
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x03, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x5f, 0x9e, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x3b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x12, 0xc0, 0x00, 0x00, 0x00, 0x00,
      0x3f, 0x00, 0x00, 0x00, 0xcc, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x3a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x03, 0xe8, 0x3f, 0xf0, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0xbd, 0x98, 0x4a, 0xff, 0xfb, 0x8f, 0x00, 0x1e,
      0xfc, 0xfd, 0xc0, 0x7c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x1a,
      0x83, 0xfc, 0x00, 0x00, 0x00, 0x00, 0x1f, 0xff, 0xff, 0xff, 0xff,
      0xff, 0xfe, 0x70, 0xc8, 0x20, 0x00, 0x00, 0x00, 0x0c, 0xfb, 0x00,
      0x10};
  std::vector<uint8_t> image;
  block.Serialize(&image);
  EXPECT_EQ(image, golden);
  auto points = DecodeAll(block);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), std::size(ts));
  for (size_t i = 0; i < std::size(ts); ++i) {
    EXPECT_EQ((*points)[i].first, ts[i]);
    EXPECT_EQ(std::bit_cast<uint64_t>((*points)[i].second),
              std::bit_cast<uint64_t>(vs[i]));
  }
}

TEST(CompressedBlockTest, SinglePoint) {
  CompressedBlock block;
  ASSERT_TRUE(block.Append(1000, 3.25).ok());
  auto points = DecodeAll(block);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 1u);
  EXPECT_EQ((*points)[0].first, 1000);
  EXPECT_EQ((*points)[0].second, 3.25);
}

TEST(CompressedBlockTest, RegularMinuteGridRoundTrip) {
  CompressedBlock block;
  Rng rng(1);
  std::vector<std::pair<EpochSeconds, double>> expected;
  double v = 100.0;
  for (int i = 0; i < 2880; ++i) {  // two days of minutes
    v += rng.Normal() * 0.5;
    const EpochSeconds t = 1500000000 + i * 60;
    expected.emplace_back(t, v);
    ASSERT_TRUE(block.Append(t, v).ok());
  }
  auto points = DecodeAll(block);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*points)[i].first, expected[i].first);
    EXPECT_EQ((*points)[i].second, expected[i].second) << i;
  }
}

TEST(CompressedBlockTest, RegularGridCompressesWell) {
  // Constant-delta timestamps + slowly varying values should compress far
  // below 16 bytes/point.
  CompressedBlock block;
  for (int i = 0; i < 1440; ++i) {
    ASSERT_TRUE(block.Append(i * 60, 42.0).ok());
  }
  const double bytes_per_point =
      static_cast<double>(block.byte_size()) / 1440.0;
  EXPECT_LT(bytes_per_point, 0.5);  // constant series ~2 bits/point
}

TEST(CompressedBlockTest, IrregularTimestampsRoundTrip) {
  CompressedBlock block;
  std::vector<EpochSeconds> ts = {0, 60, 121, 185, 185, 1000000, 1000060};
  std::vector<double> vs = {1.0, -2.5, 1e300, -1e-300, 0.0,
                            std::numeric_limits<double>::infinity(), 7.0};
  for (size_t i = 0; i < ts.size(); ++i) {
    ASSERT_TRUE(block.Append(ts[i], vs[i]).ok()) << i;
  }
  auto points = DecodeAll(block);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ((*points)[i].first, ts[i]);
    EXPECT_EQ((*points)[i].second, vs[i]);
  }
}

TEST(CompressedBlockTest, NanRoundTrip) {
  CompressedBlock block;
  ASSERT_TRUE(block.Append(0, std::nan("")).ok());
  ASSERT_TRUE(block.Append(60, 1.0).ok());
  ASSERT_TRUE(block.Append(120, std::nan("")).ok());
  auto points = DecodeAll(block);
  ASSERT_TRUE(points.ok());
  EXPECT_TRUE(std::isnan((*points)[0].second));
  EXPECT_EQ((*points)[1].second, 1.0);
  EXPECT_TRUE(std::isnan((*points)[2].second));
}

TEST(CompressedBlockTest, RejectsDecreasingTimestamps) {
  CompressedBlock block;
  ASSERT_TRUE(block.Append(100, 1.0).ok());
  EXPECT_FALSE(block.Append(99, 2.0).ok());
}

TEST(CompressedBlockTest, NegativeDeltaOfDelta) {
  // Delta shrinks: 0, +100, +10 -> dod = -90.
  CompressedBlock block;
  ASSERT_TRUE(block.Append(0, 1.0).ok());
  ASSERT_TRUE(block.Append(100, 2.0).ok());
  ASSERT_TRUE(block.Append(110, 3.0).ok());
  auto points = DecodeAll(block);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ((*points)[2].first, 110);
}

// Flips the lowest mantissa bit, producing an XOR with 63 leading zeros —
// more than the 5-bit leading field can hold, so Append must clamp to 31.
double FlipLowBit(double v) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(v) ^ 1ull);
}

TEST(CompressedBlockTest, SnapshotRoundTripContinuesAppending) {
  CompressedBlock block;
  std::vector<std::pair<EpochSeconds, double>> expected;
  auto append = [&expected](CompressedBlock& blk, EpochSeconds ts, double v) {
    ASSERT_TRUE(blk.Append(ts, v).ok());
    expected.emplace_back(ts, v);
  };

  EpochSeconds t = 1600000000;
  double v = 42.0;
  append(block, t, v);
  append(block, t += 60, v);          // x == 0, dod == 0
  append(block, t += 60, v = 43.5);   // new XOR window
  append(block, t += 60, v = 43.25);  // another window
  append(block, t += 1000000, v);     // dod ≈ 1e6: 64-bit escape bucket
  append(block, t += 60, v = FlipLowBit(v));  // leading = 63, clamped to 31
  append(block, t += 60, v = FlipLowBit(v));  // x == 1 again: window reuse

  // Snapshot mid-stream, restore, and keep appending to the restored block.
  std::vector<uint8_t> buffer;
  block.Serialize(&buffer);
  size_t offset = 0;
  auto restored = CompressedBlock::Deserialize(buffer, &offset);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(restored->num_points(), block.num_points());

  append(*restored, t += 60, v);                  // x == 0 after reload
  append(*restored, t += 60, v = FlipLowBit(v));  // reuse the reloaded window
  append(*restored, t += 5000000, v = -1.0);      // escape bucket again
  append(*restored, t += 60, v = 42.0);
  append(*restored, t, v);  // duplicate timestamp (dod flips sign)

  auto points = DecodeAll(*restored);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*points)[i].first, expected[i].first) << i;
    EXPECT_EQ((*points)[i].second, expected[i].second) << i;
  }
}

TEST(CompressedBlockTest, SnapshotEveryFewPointsStaysLossless) {
  // Random walk with occasional timestamp jumps and low-bit perturbations,
  // snapshotting (serialize + deserialize) every 97 appends.
  Rng rng(9);
  CompressedBlock block;
  std::vector<std::pair<EpochSeconds, double>> expected;
  EpochSeconds t = 0;
  double v = 100.0;
  for (int i = 0; i < 600; ++i) {
    switch (rng.UniformInt(5)) {
      case 0:
        break;  // exact repeat: x == 0
      case 1:
        v = FlipLowBit(v);  // forces the leading > 31 clamp path
        break;
      default:
        v += rng.Normal();
    }
    t += rng.UniformInt(20) == 0 ? 1000000 : 60;  // occasional escape bucket
    ASSERT_TRUE(block.Append(t, v).ok()) << i;
    expected.emplace_back(t, v);
    if (i % 97 == 96) {
      std::vector<uint8_t> buffer;
      block.Serialize(&buffer);
      size_t offset = 0;
      auto restored = CompressedBlock::Deserialize(buffer, &offset);
      ASSERT_TRUE(restored.ok()) << i;
      block = std::move(restored).value();
    }
  }
  auto points = DecodeAll(block);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*points)[i].first, expected[i].first) << i;
    EXPECT_EQ((*points)[i].second, expected[i].second) << i;
  }
}

TEST(CompressedBlockTest, DeserializeConsumesConcatenatedBlocks) {
  CompressedBlock a, b;
  ASSERT_TRUE(a.Append(0, 1.0).ok());
  ASSERT_TRUE(a.Append(60, 2.0).ok());
  ASSERT_TRUE(b.Append(1000, -3.0).ok());
  std::vector<uint8_t> buffer;
  a.Serialize(&buffer);
  b.Serialize(&buffer);
  size_t offset = 0;
  auto ra = CompressedBlock::Deserialize(buffer, &offset);
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(ra->num_points(), 2u);
  auto rb = CompressedBlock::Deserialize(buffer, &offset);
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb->num_points(), 1u);
  EXPECT_EQ(offset, buffer.size());
  EXPECT_FALSE(CompressedBlock::Deserialize(buffer, &offset).ok());
}

// --- Range decoding ------------------------------------------------------

// A random block exercising every encoding path near checkpoint
// boundaries: 64-bit delta-of-delta escapes, XOR window reuse running
// across a checkpoint (a low-bit flip repeated around each boundary),
// and a duplicate timestamp straddling each boundary.
struct RandomBlock {
  CompressedBlock block;
  std::vector<EpochSeconds> ts;
  std::vector<double> vs;
};

RandomBlock MakeRandomBlock(uint64_t seed, size_t n) {
  Rng rng(seed);
  RandomBlock out;
  EpochSeconds t = -5000 + static_cast<EpochSeconds>(rng.UniformInt(10000));
  double v = 100.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t to_boundary = (i + 8) % kCheckpointInterval;
    if (i > 0) {
      if (i % kCheckpointInterval == 0) {
        // Point i - 1 ends a checkpoint stretch; point i repeats its
        // timestamp.
      } else if (rng.UniformInt(25) == 0) {
        t += 1000000 + static_cast<EpochSeconds>(rng.UniformInt(1000));
      } else if (rng.UniformInt(10) == 0) {
        t += static_cast<EpochSeconds>(rng.UniformInt(3));  // 0 repeats
      } else {
        t += 60;
      }
    }
    if (to_boundary < 16) {
      v = FlipLowBit(v);  // same XOR window on both sides of the boundary
    } else if (rng.UniformInt(6) == 0) {
      // exact repeat: XOR of zero
    } else {
      v += rng.Normal() * 3.0;
    }
    EXPECT_TRUE(out.block.Append(t, v).ok());
    out.ts.push_back(t);
    out.vs.push_back(v);
  }
  return out;
}

// The reference: points[from..] inside `window`.
void FilterReference(const RandomBlock& b, size_t from, const TimeRange& w,
                     std::vector<EpochSeconds>* ts, std::vector<double>* vs) {
  for (size_t i = from; i < b.ts.size(); ++i) {
    if (!w.Contains(b.ts[i])) continue;
    ts->push_back(b.ts[i]);
    vs->push_back(b.vs[i]);
  }
}

// Windows before, inside, straddling either end of, and after the block,
// an empty one, and windows starting just before, at and just after
// every checkpoint's timestamp.
std::vector<TimeRange> WindowsFor(const RandomBlock& b,
                                  const std::vector<DecodeCheckpoint>& cps) {
  const EpochSeconds lo = b.ts.front();
  const EpochSeconds hi = b.ts.back();
  const EpochSeconds mid = b.ts[b.ts.size() / 2];
  std::vector<TimeRange> out = {
      {lo - 1000, lo - 10},  {lo - 1000, lo},  {lo - 10, lo + 600},
      {mid, mid + 3600},     {mid - 1, mid},   {hi - 600, hi + 10},
      {hi, hi + 1},          {hi + 1, hi + 1000}, {mid, mid},
      {lo, hi + 1},
  };
  for (const DecodeCheckpoint& cp : cps) {
    for (EpochSeconds d : {-61, -1, 0, 1, 61}) {
      out.push_back({cp.timestamp + d, cp.timestamp + d + 1800});
    }
  }
  return out;
}

bool SameState(const DecodeCheckpoint& a, const DecodeCheckpoint& b) {
  return a.bit_offset == b.bit_offset && a.timestamp == b.timestamp &&
         a.delta == b.delta && a.value_bits == b.value_bits &&
         a.points == b.points && a.leading == b.leading &&
         a.trailing == b.trailing && a.have_window == b.have_window;
}

TEST(RangeDecodeTest, CheckpointsMatchTheEncoderState) {
  // Merge takes its seek index from the encoder, Seal from the decoder:
  // both must describe the same state after every checkpointed point.
  const RandomBlock b = MakeRandomBlock(3, 5 * kCheckpointInterval + 17);
  CompressedBlock replay;
  std::vector<DecodeCheckpoint> from_encoder;
  for (size_t i = 0; i < b.ts.size(); ++i) {
    ASSERT_TRUE(replay.Append(b.ts[i], b.vs[i]).ok());
    if (CheckpointAfter(i + 1, b.ts.size())) {
      from_encoder.push_back(replay.Checkpoint());
    }
  }
  std::vector<EpochSeconds> ts;
  std::vector<double> vs;
  std::vector<DecodeCheckpoint> from_decoder;
  ASSERT_TRUE(b.block.Decode(&ts, &vs, nullptr, nullptr, &from_decoder).ok());
  ASSERT_EQ(from_decoder.size(), 5u);
  ASSERT_EQ(from_encoder.size(), from_decoder.size());
  for (size_t j = 0; j < from_decoder.size(); ++j) {
    EXPECT_TRUE(SameState(from_encoder[j], from_decoder[j])) << j;
    EXPECT_EQ(from_decoder[j].points, (j + 1) * kCheckpointInterval);
    EXPECT_EQ(from_decoder[j].timestamp, b.ts[from_decoder[j].points - 1]);
  }
  // The XOR window is live at every checkpoint (the low-bit flips).
  for (const DecodeCheckpoint& cp : from_decoder) {
    EXPECT_TRUE(cp.have_window);
  }
}

TEST(RangeDecodeTest, RangeDecodeEqualsDecodeAllThenFilter) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    const size_t n = 3 * kCheckpointInterval + 1 + seed * 37;
    const RandomBlock b = MakeRandomBlock(seed, n);
    std::vector<EpochSeconds> all_ts;
    std::vector<double> all_vs;
    std::vector<DecodeCheckpoint> cps;
    auto all = b.block.Decode(&all_ts, &all_vs, nullptr, nullptr, &cps);
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(*all, n);
    ASSERT_EQ(all_ts, b.ts);
    ASSERT_EQ(cps.size(), (n - 1) / kCheckpointInterval);

    // Resuming at every checkpoint offset, under every window.
    std::vector<const DecodeCheckpoint*> starts = {nullptr};
    for (const DecodeCheckpoint& cp : cps) starts.push_back(&cp);
    for (const TimeRange& w : WindowsFor(b, cps)) {
      for (const DecodeCheckpoint* from : starts) {
        const size_t first = from == nullptr ? 0 : from->points;
        std::vector<EpochSeconds> want_ts, got_ts;
        std::vector<double> want_vs, got_vs;
        FilterReference(b, first, w, &want_ts, &want_vs);
        auto decoded = b.block.Decode(&got_ts, &got_vs, &w, from);
        ASSERT_TRUE(decoded.ok());
        ASSERT_EQ(got_ts, want_ts) << w.start << ".." << w.end << " @" << first;
        ASSERT_EQ(got_vs.size(), want_vs.size());
        for (size_t i = 0; i < want_vs.size(); ++i) {
          ASSERT_EQ(std::bit_cast<uint64_t>(got_vs[i]),
                    std::bit_cast<uint64_t>(want_vs[i]));
        }
        // The pass stops at the first point at or past the window's end.
        size_t stop = first;
        while (stop < n && b.ts[stop] < w.end) ++stop;
        EXPECT_EQ(*decoded, std::min(stop + 1, n) - first);
      }
    }
  }
}

TEST(RangeDecodeTest, SegmentSeekEqualsDecodeAllThenFilter) {
  for (uint64_t seed = 21; seed <= 26; ++seed) {
    SCOPED_TRACE(seed);
    const size_t n = 6 * kCheckpointInterval + seed;
    RandomBlock b = MakeRandomBlock(seed, n);
    auto sealed = SealedSegment::Seal(b.block);
    ASSERT_TRUE(sealed.ok());
    const SealedSegment& seg = **sealed;
    ASSERT_EQ(seg.checkpoints().size(), 6u);
    EXPECT_EQ(seg.index_bytes(), 6 * sizeof(DecodeCheckpoint));

    // Compaction builds the same index from the encoder.
    std::vector<std::shared_ptr<const SealedSegment>> parts;
    for (size_t begin = 0; begin < n; begin += 200) {
      CompressedBlock part;
      for (size_t i = begin; i < std::min(n, begin + 200); ++i) {
        ASSERT_TRUE(part.Append(b.ts[i], b.vs[i]).ok());
      }
      auto p = SealedSegment::Seal(std::move(part));
      ASSERT_TRUE(p.ok());
      parts.push_back(*p);
    }
    auto merged = SealedSegment::Merge(parts);
    ASSERT_TRUE(merged.ok());
    ASSERT_EQ((*merged)->checkpoints().size(), seg.checkpoints().size());
    for (size_t j = 0; j < seg.checkpoints().size(); ++j) {
      EXPECT_TRUE(
          SameState((*merged)->checkpoints()[j], seg.checkpoints()[j]))
          << j;
    }

    for (const TimeRange& w : WindowsFor(b, seg.checkpoints())) {
      std::vector<EpochSeconds> want_ts, got_ts;
      std::vector<double> want_vs, got_vs;
      FilterReference(b, 0, w, &want_ts, &want_vs);
      auto decoded = seg.Decode(&w, &got_ts, &got_vs);
      ASSERT_TRUE(decoded.ok());
      ASSERT_EQ(got_ts, want_ts) << w.start << ".." << w.end;
      ASSERT_EQ(got_vs, want_vs);
      // The seek starts after the last checkpoint strictly before the
      // window and the pass stops at its first point at or past the end.
      size_t first = 0;
      for (const DecodeCheckpoint& cp : seg.checkpoints()) {
        if (cp.timestamp < w.start) first = cp.points;
      }
      size_t stop = first;
      while (stop < n && b.ts[stop] < w.end) ++stop;
      EXPECT_EQ(*decoded, std::min(stop + 1, n) - first)
          << w.start << ".." << w.end;
    }
  }
}

TEST(RangeDecodeTest, ResumeRejectsAForeignCheckpoint) {
  CompressedBlock block;
  ASSERT_TRUE(block.Append(0, 1.0).ok());
  ASSERT_TRUE(block.Append(60, 2.0).ok());
  DecodeCheckpoint foreign;
  foreign.points = 5;
  std::vector<EpochSeconds> ts;
  std::vector<double> vs;
  EXPECT_FALSE(block.Decode(&ts, &vs, nullptr, &foreign).ok());
}

// Property sweep over random walks with different volatilities.
class CompressionRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(CompressionRoundTrip, LosslessAcrossVolatility) {
  const double vol = GetParam();
  Rng rng(static_cast<uint64_t>(vol * 1000) + 7);
  CompressedBlock block;
  std::vector<double> expected;
  double v = 50.0;
  EpochSeconds t = 0;
  for (int i = 0; i < 500; ++i) {
    v += rng.Normal() * vol;
    t += 60 + (rng.UniformInt(10) == 0 ? rng.UniformInt(600) : 0);
    expected.push_back(v);
    ASSERT_TRUE(block.Append(t, v).ok());
  }
  auto points = DecodeAll(block);
  ASSERT_TRUE(points.ok());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*points)[i].second, expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Volatility, CompressionRoundTrip,
                         ::testing::Values(0.0, 0.001, 0.1, 10.0, 1e6));

}  // namespace
}  // namespace explainit::tsdb
