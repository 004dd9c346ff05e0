#include "tsdb/segment.h"

#include <algorithm>
#include <iterator>

namespace explainit::tsdb {

std::shared_ptr<const SealedSegment> SealedSegment::Build(
    CompressedBlock block, const std::vector<EpochSeconds>& timestamps,
    const std::vector<double>& values,
    std::vector<DecodeCheckpoint> checkpoints) {
  std::shared_ptr<SealedSegment> seg(new SealedSegment());
  seg->block_ = std::move(block);
  seg->num_points_ = timestamps.size();
  seg->min_ts_ = timestamps.front();
  seg->max_ts_ = timestamps.back();
  for (int64_t step : kRollupTierSteps) {
    seg->tiers_.push_back(BuildRollupTier(timestamps, values, step));
  }
  seg->checkpoints_ = std::move(checkpoints);
  seg->checkpoints_.shrink_to_fit();
  return seg;
}

Result<std::shared_ptr<const SealedSegment>> SealedSegment::Seal(
    CompressedBlock block) {
  if (block.num_points() == 0) {
    return Status::InvalidArgument("cannot seal an empty block");
  }
  std::vector<EpochSeconds> timestamps;
  std::vector<double> values;
  timestamps.reserve(block.num_points());
  values.reserve(block.num_points());
  std::vector<DecodeCheckpoint> checkpoints;
  EXPLAINIT_RETURN_IF_ERROR(
      block.Decode(&timestamps, &values, nullptr, nullptr, &checkpoints)
          .status());
  return Build(std::move(block), timestamps, values, std::move(checkpoints));
}

Result<std::shared_ptr<const SealedSegment>> SealedSegment::Merge(
    const std::vector<std::shared_ptr<const SealedSegment>>& parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("cannot merge zero segments");
  }
  size_t total = 0;
  for (const auto& part : parts) total += part->num_points();
  std::vector<EpochSeconds> timestamps;
  std::vector<double> values;
  timestamps.reserve(total);
  values.reserve(total);
  for (const auto& part : parts) {
    EXPLAINIT_RETURN_IF_ERROR(
        part->block().Decode(&timestamps, &values).status());
  }
  CompressedBlock merged;
  std::vector<DecodeCheckpoint> checkpoints;
  for (size_t i = 0; i < timestamps.size(); ++i) {
    EXPLAINIT_RETURN_IF_ERROR(merged.Append(timestamps[i], values[i]));
    // The encoder's state after a point is the decoder's state after it,
    // so the index needs no second decode of the merged block.
    if (CheckpointAfter(i + 1, timestamps.size())) {
      checkpoints.push_back(merged.Checkpoint());
    }
  }
  return Build(std::move(merged), timestamps, values, std::move(checkpoints));
}

Result<size_t> SealedSegment::Decode(const TimeRange* window,
                                     std::vector<EpochSeconds>* timestamps,
                                     std::vector<double>* values) const {
  const DecodeCheckpoint* resume = nullptr;
  if (window != nullptr) {
    // Every point up to a checkpoint with timestamp < window->start lies
    // before the window, so the last such checkpoint is a safe start.
    const auto first_not_before = std::partition_point(
        checkpoints_.begin(), checkpoints_.end(),
        [&](const DecodeCheckpoint& cp) {
          return cp.timestamp < window->start;
        });
    if (first_not_before != checkpoints_.begin()) {
      resume = &*std::prev(first_not_before);
    }
  }
  return block_.Decode(timestamps, values, window, resume);
}

const RollupTier* SealedSegment::TierFor(int64_t step_seconds) const {
  for (const RollupTier& tier : tiers_) {
    if (tier.step_seconds == step_seconds) return &tier;
  }
  return nullptr;
}

}  // namespace explainit::tsdb
