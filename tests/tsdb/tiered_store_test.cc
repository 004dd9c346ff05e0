// Tests of the tiered storage engine: head sealing, rollup tier
// construction, rollup-routed scans (with per-tier ScanStats), edge-bucket
// raw fallback and segment compaction.
#include <gtest/gtest.h>

#include <numeric>

#include "tsdb/rollup.h"
#include "tsdb/segment.h"
#include "tsdb/store.h"

namespace explainit::tsdb {
namespace {

StoreOptions InlineSealEvery(size_t points) {
  StoreOptions opts;
  opts.seal_max_points = points;
  opts.background_seal = false;
  opts.compact_min_segments = 0;
  return opts;
}

// One series, `n` points at a 10s cadence, value 1.0 each (so a bucket
// aggregate is trivially count/6-checkable).
SeriesStore MakeTenSecondStore(StoreOptions opts, size_t n = 60) {
  SeriesStore store(opts);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(
        store.Write("m", TagSet{{"h", "a"}}, static_cast<int64_t>(i) * 10, 1.0)
            .ok());
  }
  return store;
}

TEST(RollupTest, EffectiveTierStepPicksCoarsestDivisor) {
  EXPECT_EQ(EffectiveRollupTierStep(60), 60);
  EXPECT_EQ(EffectiveRollupTierStep(120), 60);
  EXPECT_EQ(EffectiveRollupTierStep(3600), 3600);
  EXPECT_EQ(EffectiveRollupTierStep(7200), 3600);
  EXPECT_EQ(EffectiveRollupTierStep(86400), 3600);
  EXPECT_EQ(EffectiveRollupTierStep(90), 0);  // no tier divides 90
  EXPECT_EQ(EffectiveRollupTierStep(30), 0);
  EXPECT_EQ(EffectiveRollupTierStep(0), 0);
}

TEST(RollupTest, BuildTierAggregatesPerBucket) {
  const std::vector<EpochSeconds> ts = {0, 30, 59, 60, 119, 180};
  const std::vector<double> vs = {1.0, 5.0, 3.0, -2.0, 4.0, 7.0};
  RollupTier tier = BuildRollupTier(ts, vs, 60);
  ASSERT_EQ(tier.points.size(), 3u);
  const RollupPoint& b0 = tier.points[0];
  EXPECT_EQ(b0.bucket, 0);
  EXPECT_EQ(b0.first_ts, 0);
  EXPECT_EQ(b0.last_ts, 59);
  EXPECT_EQ(b0.min, 1.0);
  EXPECT_EQ(b0.max, 5.0);
  EXPECT_EQ(b0.sum, 9.0);
  EXPECT_EQ(b0.count, 3u);
  const RollupPoint& b1 = tier.points[1];
  EXPECT_EQ(b1.bucket, 60);
  EXPECT_EQ(b1.min, -2.0);
  EXPECT_EQ(b1.max, 4.0);
  EXPECT_EQ(b1.count, 2u);
  EXPECT_EQ(tier.points[2].bucket, 180);
}

TEST(RollupTest, AlignToStepStartHandlesNegatives) {
  EXPECT_EQ(AlignToStepStart(0, 60), 0);
  EXPECT_EQ(AlignToStepStart(59, 60), 0);
  EXPECT_EQ(AlignToStepStart(60, 60), 60);
  EXPECT_EQ(AlignToStepStart(-1, 60), -60);
  EXPECT_EQ(AlignToStepStart(-60, 60), -60);
}

TEST(SegmentTest, SealBuildsAllTiersAndExtent) {
  CompressedBlock block;
  for (int64_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(block.Append(i * 60, static_cast<double>(i)).ok());
  }
  auto seg = SealedSegment::Seal(std::move(block));
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ((*seg)->num_points(), 120u);
  EXPECT_EQ((*seg)->min_timestamp(), 0);
  EXPECT_EQ((*seg)->max_timestamp(), 119 * 60);
  const RollupTier* minute = (*seg)->TierFor(60);
  ASSERT_NE(minute, nullptr);
  EXPECT_EQ(minute->points.size(), 120u);  // one point per minute
  const RollupTier* hour = (*seg)->TierFor(3600);
  ASSERT_NE(hour, nullptr);
  ASSERT_EQ(hour->points.size(), 2u);
  // Hour 0 holds minutes 0..59: sum = 59*60/2.
  EXPECT_EQ(hour->points[0].sum, 59.0 * 60.0 / 2.0);
  EXPECT_EQ(hour->points[0].count, 60u);
  EXPECT_EQ((*seg)->TierFor(17), nullptr);
}

TEST(SegmentTest, SealRejectsEmptyBlock) {
  EXPECT_FALSE(SealedSegment::Seal(CompressedBlock{}).ok());
}

TEST(TieredStoreTest, InlineSealingAtThreshold) {
  SeriesStore store = MakeTenSecondStore(InlineSealEvery(24));
  const StorageStats st = store.storage_stats();
  EXPECT_EQ(st.seals, 2u);  // 60 points, sealed at 24 and 48
  EXPECT_EQ(st.sealed_segments, 2u);
  EXPECT_EQ(st.sealed_points, 48u);
  EXPECT_EQ(st.head_points, 12u);
  EXPECT_EQ(store.num_points(), 60u);

  // Hint-free scans still see every point, raw.
  ScanRequest req;
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  EXPECT_EQ((*res)[0].timestamps.size(), 60u);
}

TEST(TieredStoreTest, FlushSealsEverything) {
  SeriesStore store = MakeTenSecondStore(InlineSealEvery(1000));
  EXPECT_EQ(store.storage_stats().sealed_segments, 0u);
  ASSERT_TRUE(store.Flush().ok());
  const StorageStats st = store.storage_stats();
  EXPECT_EQ(st.sealed_segments, 1u);
  EXPECT_EQ(st.head_points, 0u);
  EXPECT_EQ(st.sealed_points, 60u);
  // Idempotent: nothing left to seal.
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(store.storage_stats().seals, 1u);
}

TEST(TieredStoreTest, WritesContinueAfterSeal) {
  SeriesStore store = MakeTenSecondStore(InlineSealEvery(24));
  ASSERT_TRUE(store.Write("m", TagSet{{"h", "a"}}, 600, 2.0).ok());
  ScanRequest req;
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ((*res)[0].timestamps.size(), 61u);
  EXPECT_EQ((*res)[0].timestamps.back(), 600);
  EXPECT_EQ((*res)[0].values.back(), 2.0);
}

TEST(TieredStoreTest, RollupRoutedScanDecodesNoRawPoints) {
  SeriesStore store = MakeTenSecondStore(InlineSealEvery(1000));
  ASSERT_TRUE(store.Flush().ok());
  store.ResetScanStats();

  ScanRequest req;
  req.hints.min_step_seconds = 60;
  req.hints.rollup = RollupAggregate::kSum;
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  // 60 points x 10s = 10 minute-buckets of 6 points each, sum 6.0.
  ASSERT_EQ((*res)[0].timestamps.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ((*res)[0].timestamps[i], static_cast<int64_t>(i) * 60);
    EXPECT_EQ((*res)[0].values[i], 6.0);
  }
  const ScanStats st = store.scan_stats();
  EXPECT_EQ(st.points_decoded, 0u);  // the whole scan came from the tier
  EXPECT_EQ(st.rollup_points_returned, 10u);
  EXPECT_EQ(st.rollup_points_skipped, 60u);
  EXPECT_EQ(st.minute_tier_points, 10u);
  EXPECT_EQ(st.hour_tier_points, 0u);
  EXPECT_EQ(st.segments_rollup_served, 1u);
  EXPECT_EQ(st.segments_raw_fallback, 0u);
}

TEST(TieredStoreTest, CoarseHintUsesHourTier) {
  SeriesStore store(InlineSealEvery(1000));
  for (int64_t i = 0; i < 180; ++i) {  // 3 hours of minutely points
    ASSERT_TRUE(store.Write("m", TagSet{}, i * 60, 1.0).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  store.ResetScanStats();

  ScanRequest req;
  req.hints.min_step_seconds = 7200;  // 2h grid: hour tier divides it
  req.hints.rollup = RollupAggregate::kSum;
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ((*res)[0].timestamps.size(), 3u);
  for (double v : (*res)[0].values) EXPECT_EQ(v, 60.0);
  const ScanStats st = store.scan_stats();
  EXPECT_EQ(st.hour_tier_points, 3u);
  EXPECT_EQ(st.minute_tier_points, 0u);
  EXPECT_EQ(st.points_decoded, 0u);
}

TEST(TieredStoreTest, MinMaxAggregatesServeTierValues) {
  SeriesStore store(InlineSealEvery(1000));
  for (int64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        store.Write("m", TagSet{}, i * 10, static_cast<double>(i)).ok());
  }
  ASSERT_TRUE(store.Flush().ok());

  ScanRequest req;
  req.hints.min_step_seconds = 60;
  req.hints.rollup = RollupAggregate::kMin;
  auto mins = store.Scan(req);
  ASSERT_TRUE(mins.ok());
  ASSERT_EQ((*mins)[0].values.size(), 2u);
  EXPECT_EQ((*mins)[0].values[0], 0.0);
  EXPECT_EQ((*mins)[0].values[1], 6.0);

  req.hints.rollup = RollupAggregate::kMax;
  auto maxs = store.Scan(req);
  ASSERT_TRUE(maxs.ok());
  EXPECT_EQ((*maxs)[0].values[0], 5.0);
  EXPECT_EQ((*maxs)[0].values[1], 11.0);
}

TEST(TieredStoreTest, UnalignedWindowFallsBackToRaw) {
  SeriesStore store = MakeTenSecondStore(InlineSealEvery(1000));
  ASSERT_TRUE(store.Flush().ok());
  store.ResetScanStats();

  // [30, 600) cuts minute-bucket 0 in half: serving its tier row would
  // count the out-of-window points 0/10/20, so the segment must decode
  // raw. The store proves this from the bucket's first/last timestamps.
  ScanRequest req;
  req.range = {30, 600};
  req.hints.min_step_seconds = 60;
  req.hints.rollup = RollupAggregate::kSum;
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ((*res)[0].timestamps.size(), 57u);  // raw points 30..590
  EXPECT_EQ((*res)[0].timestamps[0], 30);
  const ScanStats st = store.scan_stats();
  EXPECT_EQ(st.segments_raw_fallback, 1u);
  EXPECT_EQ(st.segments_rollup_served, 0u);
  EXPECT_EQ(st.rollup_points_returned, 0u);
  EXPECT_EQ(st.points_decoded, 60u);
}

TEST(TieredStoreTest, AlignedWindowStaysOnTier) {
  SeriesStore store = MakeTenSecondStore(InlineSealEvery(1000));
  ASSERT_TRUE(store.Flush().ok());
  store.ResetScanStats();

  ScanRequest req;
  req.range = {60, 300};  // buckets 1..4, whole buckets only
  req.hints.min_step_seconds = 60;
  req.hints.rollup = RollupAggregate::kSum;
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ((*res)[0].timestamps.size(), 4u);
  EXPECT_EQ((*res)[0].timestamps.front(), 60);
  EXPECT_EQ((*res)[0].timestamps.back(), 240);
  const ScanStats st = store.scan_stats();
  EXPECT_EQ(st.segments_rollup_served, 1u);
  EXPECT_EQ(st.points_decoded, 0u);
}

TEST(TieredStoreTest, MixedTiersRecombineExactly) {
  // Two sealed segments + a dirty head, sealed mid-bucket (25 points per
  // seal at a 10s cadence = 250s, not minute-aligned): a full-window SUM
  // over the hinted scan must still equal the raw total, with bucket rows
  // from both segments sharing a bucket timestamp at the seam.
  SeriesStore store = MakeTenSecondStore(InlineSealEvery(25));
  ScanRequest req;
  req.hints.min_step_seconds = 60;
  req.hints.rollup = RollupAggregate::kSum;
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  const auto& s = (*res)[0];
  const double total =
      std::accumulate(s.values.begin(), s.values.end(), 0.0);
  EXPECT_EQ(total, 60.0);  // 60 raw points of 1.0
  const ScanStats st = store.scan_stats();
  EXPECT_EQ(st.segments_rollup_served, 2u);
  EXPECT_EQ(st.head_points_decoded, 10u);  // 60 - 2*25 raw head points
}

TEST(TieredStoreTest, UnsupportedStepScansRaw) {
  SeriesStore store = MakeTenSecondStore(InlineSealEvery(1000));
  ASSERT_TRUE(store.Flush().ok());
  ScanRequest req;
  req.hints.min_step_seconds = 90;  // no maintained tier divides 90
  req.hints.rollup = RollupAggregate::kSum;
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ((*res)[0].timestamps.size(), 60u);  // raw
  EXPECT_EQ(store.scan_stats().rollup_points_returned, 0u);
}

TEST(TieredStoreTest, CompactionMergesSegmentRuns) {
  StoreOptions opts = InlineSealEvery(10);
  opts.compact_min_segments = 3;
  SeriesStore store = MakeTenSecondStore(opts);  // 6 seals -> compactions
  const StorageStats st = store.storage_stats();
  EXPECT_GT(st.compactions, 0u);
  EXPECT_LT(st.sealed_segments, 6u);

  ScanRequest req;
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ((*res)[0].timestamps.size(), 60u);
  for (size_t i = 1; i < (*res)[0].timestamps.size(); ++i) {
    EXPECT_LT((*res)[0].timestamps[i - 1], (*res)[0].timestamps[i]);
  }
}

TEST(TieredStoreTest, CompactCollapsesToOneSegment) {
  SeriesStore store = MakeTenSecondStore(InlineSealEvery(10));
  EXPECT_EQ(store.storage_stats().sealed_segments, 6u);
  ASSERT_TRUE(store.Compact().ok());
  const StorageStats st = store.storage_stats();
  EXPECT_EQ(st.sealed_segments, 1u);
  EXPECT_EQ(st.head_points, 0u);
  EXPECT_EQ(st.sealed_points, 60u);

  // Rollups are rebuilt over the merged segment: a hinted scan now
  // serves every bucket from one segment.
  store.ResetScanStats();
  ScanRequest req;
  req.hints.min_step_seconds = 60;
  req.hints.rollup = RollupAggregate::kSum;
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ((*res)[0].values.size(), 10u);
  EXPECT_EQ(store.scan_stats().segments_rollup_served, 1u);
}

TEST(TieredStoreTest, TimePruningSkipsDisjointSegments) {
  SeriesStore store = MakeTenSecondStore(InlineSealEvery(30));  // 2 segs
  ASSERT_TRUE(store.Flush().ok());
  store.ResetScanStats();
  ScanRequest req;
  req.range = {0, 60};  // first segment only
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ((*res)[0].timestamps.size(), 6u);
  // The disjoint second segment is skipped outright, and the first one
  // stops at its first point past the window: the six points at 0..50
  // plus the one at 60 that ends the pass, not the whole segment's 30.
  EXPECT_EQ(store.scan_stats().points_decoded, 7u);
}

TEST(TieredStoreTest, WindowedScanSeeksToTheLastCheckpointBeforeIt) {
  // One sealed segment of 1000 points at a 10s cadence holds a
  // checkpoint after every kCheckpointInterval points.
  const size_t n = 1000;
  SeriesStore store = MakeTenSecondStore(InlineSealEvery(n), n);
  ASSERT_EQ(store.storage_stats().sealed_segments, 1u);
  ASSERT_EQ(kCheckpointInterval, 128u);
  store.ResetScanStats();
  ScanRequest req;
  req.range = {5000, 5100};  // points 500..509
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ((*res)[0].timestamps.size(), 10u);
  EXPECT_EQ((*res)[0].timestamps.front(), 5000);
  EXPECT_EQ((*res)[0].timestamps.back(), 5090);
  // The last checkpoint before t=5000 is the one after point 383
  // (t=3830), so the pass decodes points 384..510: 116 before the
  // window, 10 inside it and the one at t=5100 that ends it.
  EXPECT_EQ(store.scan_stats().points_decoded, 127u);
  EXPECT_EQ(store.scan_stats().segment_points_decoded, 127u);

  // A window that starts before the first checkpoint decodes from the
  // first point; one past the segment's end decodes nothing.
  store.ResetScanStats();
  req.range = {0, 30};
  ASSERT_TRUE(store.Scan(req).ok());
  EXPECT_EQ(store.scan_stats().points_decoded, 4u);
  store.ResetScanStats();
  req.range = {n * 10, n * 10 + 100};
  ASSERT_TRUE(store.Scan(req).ok());
  EXPECT_EQ(store.scan_stats().points_decoded, 0u);
}

TEST(TieredStoreTest, BackgroundSealerSealsEventually) {
  StoreOptions opts;
  opts.seal_max_points = 16;
  opts.background_seal = true;
  SeriesStore store(opts);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Write("m", TagSet{}, i * 10, 1.0).ok());
  }
  // Flush drains the background maintenance queue and seals the rest.
  ASSERT_TRUE(store.Flush().ok());
  const StorageStats st = store.storage_stats();
  EXPECT_GT(st.seals, 0u);
  EXPECT_EQ(st.head_points, 0u);
  EXPECT_EQ(st.sealed_points, 100u);
  ScanRequest req;
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ((*res)[0].timestamps.size(), 100u);
}

TEST(TieredStoreTest, RetentionEvictsOnlyWholeExpiredSegments) {
  StoreOptions opts = InlineSealEvery(10);
  opts.retention_seconds = 295;
  SeriesStore store = MakeTenSecondStore(opts);  // ts 0..590, 6 segments
  // High-water 590 - TTL 295 = cutoff 295: the three segments whose
  // newest points are 90/190/290 are entirely expired; the segment
  // straddling the cutoff ([300, 390]) must survive whole.
  EXPECT_EQ(store.EvictExpired(), 3u);
  const StorageStats st = store.storage_stats();
  EXPECT_EQ(st.retention_evicted_segments, 3u);
  EXPECT_EQ(st.retention_evicted_points, 30u);
  EXPECT_EQ(st.sealed_points, 30u);
  auto res = store.Scan(ScanRequest{});
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  ASSERT_EQ((*res)[0].timestamps.size(), 30u);
  EXPECT_EQ((*res)[0].timestamps.front(), 300);
  EXPECT_EQ((*res)[0].timestamps.back(), 590);
  // Idempotent until the high-water moves.
  EXPECT_EQ(store.EvictExpired(), 0u);
}

TEST(TieredStoreTest, RetentionNeverEvictsTheMutableHead) {
  StoreOptions opts = InlineSealEvery(10);
  opts.retention_seconds = 295;
  SeriesStore store = MakeTenSecondStore(opts);
  // A far-future burst moves the high-water so every sealed segment
  // expires; the burst itself (5 points, under the seal threshold) is
  // still in the head, and heads are never evicted.
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Write("m", TagSet{{"h", "a"}}, 10000 + i * 10, 2.0).ok());
  }
  EXPECT_EQ(store.EvictExpired(), 6u);
  auto res = store.Scan(ScanRequest{});
  ASSERT_TRUE(res.ok());
  ASSERT_EQ((*res)[0].timestamps.size(), 5u);
  EXPECT_EQ((*res)[0].timestamps.front(), 10000);
  EXPECT_EQ(store.storage_stats().head_points, 5u);
}

TEST(TieredStoreTest, RetentionDisabledIsANoOp) {
  SeriesStore store = MakeTenSecondStore(InlineSealEvery(10));
  EXPECT_EQ(store.EvictExpired(), 0u);
  EXPECT_EQ(store.storage_stats().retention_evicted_segments, 0u);
}

}  // namespace
}  // namespace explainit::tsdb
