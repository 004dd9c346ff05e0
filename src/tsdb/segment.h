// Immutable sealed segments: the at-rest form of series data in the
// tiered store. A segment owns one Gorilla CompressedBlock plus two kinds
// of derived state built from it at seal time: the rollup tiers and a
// sparse seek index (a DecodeCheckpoint every kCheckpointInterval
// points). A segment never changes after construction — scans capture
// segments by shared_ptr and decode without any lock, while writers keep
// appending to the series head.
#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/time_util.h"
#include "tsdb/compression.h"
#include "tsdb/rollup.h"

namespace explainit::tsdb {

class SealedSegment {
 public:
  /// Seals `block` into an immutable segment: decodes it once, and from
  /// that one pass records the time extent, the seek index and every
  /// rollup tier. Empty blocks are invalid (the sealer never seals an
  /// empty head). Snapshot reload seals each stored block again, so the
  /// derived state is rebuilt rather than serialised.
  static Result<std::shared_ptr<const SealedSegment>> Seal(
      CompressedBlock block);

  /// Compaction: merges older-to-newer segments of one series into a
  /// single segment (re-encoded block, rebuilt rollups; the seek index
  /// comes from the encoder's state while re-encoding). Segments must be
  /// in append order, so their concatenated points stay non-decreasing.
  static Result<std::shared_ptr<const SealedSegment>> Merge(
      const std::vector<std::shared_ptr<const SealedSegment>>& parts);

  const CompressedBlock& block() const { return block_; }
  size_t num_points() const { return num_points_; }
  /// Compressed payload bytes (the seek index and tiers are not payload).
  size_t byte_size() const { return block_.byte_size(); }
  /// Bytes held by the seek index.
  size_t index_bytes() const {
    return checkpoints_.size() * sizeof(DecodeCheckpoint);
  }
  const std::vector<DecodeCheckpoint>& checkpoints() const {
    return checkpoints_;
  }

  /// Decodes raw points into `timestamps`/`values` and returns how many
  /// points it decoded. Without a window that is every point. With one,
  /// it keeps the points inside it, starts from the last checkpoint
  /// whose timestamp is before window->start, and stops at the first
  /// timestamp at or after window->end.
  Result<size_t> Decode(const TimeRange* window,
                        std::vector<EpochSeconds>* timestamps,
                        std::vector<double>* values) const;
  EpochSeconds min_timestamp() const { return min_ts_; }
  EpochSeconds max_timestamp() const { return max_ts_; }

  /// The tier with exactly `step_seconds`; nullptr when not maintained.
  const RollupTier* TierFor(int64_t step_seconds) const;
  const std::vector<RollupTier>& tiers() const { return tiers_; }

 private:
  SealedSegment() = default;

  /// Shared tail of Seal/Merge: wraps the block, its decoded points and
  /// its checkpoints.
  static std::shared_ptr<const SealedSegment> Build(
      CompressedBlock block, const std::vector<EpochSeconds>& timestamps,
      const std::vector<double>& values,
      std::vector<DecodeCheckpoint> checkpoints);

  CompressedBlock block_;
  size_t num_points_ = 0;
  EpochSeconds min_ts_ = 0;
  EpochSeconds max_ts_ = 0;
  std::vector<RollupTier> tiers_;  // kRollupTierSteps order
  std::vector<DecodeCheckpoint> checkpoints_;  // non-decreasing timestamps
};

}  // namespace explainit::tsdb
