#include "tsdb/store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <unistd.h>

namespace explainit::tsdb {
namespace {

SeriesStore MakeStore() {
  SeriesStore store;
  TagSet dn1{{"host", "datanode-1"}, {"type", "read_latency"}};
  TagSet dn2{{"host", "datanode-2"}, {"type", "read_latency"}};
  TagSet nn{{"host", "namenode-1"}, {"type", "read_latency"}};
  for (int i = 0; i < 10; ++i) {
    const EpochSeconds t = i * 60;
    EXPECT_TRUE(store.Write("disk", dn1, t, 1.0 + i).ok());
    EXPECT_TRUE(store.Write("disk", dn2, t, 2.0 + i).ok());
    EXPECT_TRUE(store.Write("disk", nn, t, 3.0 + i).ok());
    EXPECT_TRUE(
        store.Write("runtime", TagSet{{"component", "pipeline-1"}}, t, 10.0)
            .ok());
  }
  return store;
}

TEST(TagSetTest, EncodeSortedCanonical) {
  TagSet t{{"z", "1"}, {"a", "2"}};
  EXPECT_EQ(t.Encode(), "a=2,z=1");
}

TEST(TagSetTest, GetAndHas) {
  TagSet t{{"host", "web-1"}};
  EXPECT_EQ(t.Get("host"), "web-1");
  EXPECT_EQ(t.Get("missing"), "");
  EXPECT_TRUE(t.Has("host"));
  EXPECT_FALSE(t.Has("missing"));
}

TEST(TagSetTest, MatchesGlobFilter) {
  TagSet t{{"host", "datanode-7"}, {"dc", "us-east"}};
  EXPECT_TRUE(t.Matches(TagSet{}));  // empty filter matches all
  EXPECT_TRUE(t.Matches(TagSet{{"host", "datanode*"}}));
  EXPECT_TRUE(t.Matches(TagSet{{"host", "datanode-7"}, {"dc", "us-*"}}));
  EXPECT_FALSE(t.Matches(TagSet{{"host", "namenode*"}}));
  EXPECT_FALSE(t.Matches(TagSet{{"rack", "*"}}));  // missing key
}

TEST(StoreTest, CountsSeriesAndPoints) {
  SeriesStore store = MakeStore();
  EXPECT_EQ(store.num_series(), 4u);
  EXPECT_EQ(store.num_points(), 40u);
  EXPECT_GT(store.compressed_bytes(), 0u);
}

TEST(StoreTest, ListSeriesStableOrder) {
  SeriesStore store = MakeStore();
  auto metas = store.ListSeries();
  ASSERT_EQ(metas.size(), 4u);
  EXPECT_EQ(metas[0].metric_name, "disk");
  EXPECT_EQ(metas[0].tags.Get("host"), "datanode-1");
  EXPECT_EQ(metas[3].metric_name, "runtime");
}

TEST(StoreTest, SeriesMetaToString) {
  SeriesMeta m{"disk", TagSet{{"host", "dn-1"}}};
  EXPECT_EQ(m.ToString(), "disk{host=dn-1}");
}

TEST(StoreTest, ScanByMetricGlob) {
  SeriesStore store = MakeStore();
  ScanRequest req;
  req.metric_glob = "disk";
  req.range = {0, 600};
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->size(), 3u);
  for (const auto& s : *res) EXPECT_EQ(s.meta.metric_name, "disk");
}

TEST(StoreTest, ScanByTagFilter) {
  SeriesStore store = MakeStore();
  ScanRequest req;
  req.tag_filter = TagSet{{"host", "datanode*"}};
  req.range = {0, 600};
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->size(), 2u);
}

TEST(StoreTest, ScanRespectsTimeRange) {
  SeriesStore store = MakeStore();
  ScanRequest req;
  req.metric_glob = "runtime";
  req.range = {120, 300};  // minutes 2, 3, 4
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  EXPECT_EQ((*res)[0].timestamps.size(), 3u);
  EXPECT_EQ((*res)[0].timestamps[0], 120);
}

TEST(StoreTest, ScanValuesRoundTrip) {
  SeriesStore store = MakeStore();
  ScanRequest req;
  req.metric_glob = "disk";
  req.tag_filter = TagSet{{"host", "datanode-1"}};
  req.range = {0, 600};
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ((*res)[0].values[i], 1.0 + static_cast<double>(i));
  }
}

TEST(StoreTest, ScanToTableShape) {
  SeriesStore store = MakeStore();
  ScanRequest req;
  req.metric_glob = "disk";
  req.tag_filter = TagSet{{"host", "datanode-1"}};
  req.range = {0, 300};
  auto t = store.ScanToTable(req);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 5u);
  EXPECT_EQ(t->schema().field(0).name, "timestamp");
  EXPECT_EQ(t->At(0, 1).AsString(), "disk");
  const table::ValueMap* tags = t->At(0, 2).AsMap();
  ASSERT_NE(tags, nullptr);
  EXPECT_EQ(tags->at("host").AsString(), "datanode-1");
  EXPECT_EQ(t->At(0, 3).AsDouble(), 1.0);
}

TEST(InterpolateTest, AllNanBecomesZero) {
  std::vector<double> v(4, std::nan(""));
  InterpolateMissing(v);
  for (double x : v) EXPECT_EQ(x, 0.0);
}

TEST(InterpolateTest, NearestNeighbourTieBreak) {
  const double nan = std::nan("");
  std::vector<double> v = {1.0, nan, nan, nan, 5.0};
  InterpolateMissing(v);
  EXPECT_EQ(v[1], 1.0);  // closer to left
  EXPECT_EQ(v[2], 1.0);  // tie -> earlier
  EXPECT_EQ(v[3], 5.0);  // closer to right
}

TEST(StoreTest, WriteSeriesBulk) {
  SeriesStore store;
  std::vector<EpochSeconds> ts = {0, 60, 120};
  std::vector<double> vs = {1, 2, 3};
  ASSERT_TRUE(store.WriteSeries("m", TagSet{}, ts, vs).ok());
  EXPECT_EQ(store.num_points(), 3u);
  EXPECT_FALSE(store.WriteSeries("m", TagSet{}, ts, {1.0}).ok());
}

// value == f(timestamp), irregular steps so every delta-of-delta bucket
// and XOR shape is written.
void MakeRun(size_t n, std::vector<EpochSeconds>* ts, std::vector<double>* vs) {
  EpochSeconds t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += 60 + static_cast<EpochSeconds>((i * 7919) % 97);
    ts->push_back(t);
    vs->push_back(std::sin(static_cast<double>(i) * 0.01) * 100.0 +
                  static_cast<double>(i % 13));
  }
}

TEST(StoreTest, WriteSeriesEqualsAWriteLoop) {
  StoreOptions opts;
  opts.seal_max_points = 4096;
  opts.background_seal = false;
  std::vector<EpochSeconds> ts;
  std::vector<double> vs;
  MakeRun(10000, &ts, &vs);
  const TagSet tags{{"host", "h1"}};
  SeriesStore bulk(opts), loop(opts);
  ASSERT_TRUE(bulk.WriteSeries("cpu", tags, ts, vs).ok());
  for (size_t i = 0; i < ts.size(); ++i) {
    ASSERT_TRUE(loop.Write("cpu", tags, ts[i], vs[i]).ok());
  }
  EXPECT_EQ(bulk.num_series(), 1u);
  EXPECT_EQ(bulk.num_points(), loop.num_points());
  EXPECT_EQ(bulk.compressed_bytes(), loop.compressed_bytes());
  const StorageStats a = bulk.storage_stats();
  const StorageStats b = loop.storage_stats();
  EXPECT_EQ(a.seals, 2u);  // two full 4,096-point heads
  EXPECT_EQ(a.seals, b.seals);
  EXPECT_EQ(a.sealed_segments, b.sealed_segments);
  EXPECT_EQ(a.compactions, b.compactions);
  EXPECT_EQ(a.head_points, b.head_points);
  EXPECT_EQ(a.sealed_points, b.sealed_points);
  for (const TimeRange range : {TimeRange{}, TimeRange{ts[4000], ts[8200]}}) {
    ScanRequest req;
    req.range = range;
    auto x = bulk.Scan(req);
    auto y = loop.Scan(req);
    ASSERT_TRUE(x.ok() && y.ok());
    ASSERT_EQ(x->size(), 1u);
    ASSERT_EQ(y->size(), 1u);
    EXPECT_EQ((*x)[0].timestamps, (*y)[0].timestamps);
    EXPECT_EQ((*x)[0].values, (*y)[0].values);
  }
}

TEST(StoreTest, WriteSeriesKeepsThePointsBeforeARejectedOne) {
  for (const bool inline_seal : {true, false}) {
    StoreOptions opts;
    opts.seal_max_points = 16;
    opts.background_seal = !inline_seal;
    SeriesStore store(opts);
    std::vector<EpochSeconds> ts;
    std::vector<double> vs;
    MakeRun(100, &ts, &vs);
    const size_t k = 37;
    ts[k] = ts[k - 1] - 1;  // the first timestamp below its predecessor
    const Status st = store.WriteSeries("m", TagSet{{"k", "v"}}, ts, vs);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_EQ(store.num_points(), k);
    ASSERT_TRUE(store.Flush().ok());
    auto res = store.Scan(ScanRequest{});
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res->size(), 1u);
    EXPECT_EQ((*res)[0].timestamps,
              std::vector<EpochSeconds>(ts.begin(), ts.begin() + k));
    EXPECT_EQ(store.storage_stats().sealed_points, k);
    // The series keeps taking writes after its last accepted point.
    ASSERT_TRUE(store.Write("m", TagSet{{"k", "v"}}, ts[k - 1], 1.0).ok());
    EXPECT_EQ(store.num_points(), k + 1);
  }
}

TEST(StoreTest, WriteSeriesFeedsTheObserverEveryPointInOrder) {
  StoreOptions opts;
  opts.seal_max_points = 64;
  opts.background_seal = false;
  SeriesStore store(opts);
  std::vector<std::pair<EpochSeconds, double>> seen;
  std::string series;
  store.SetWriteObserver(
      [&](const SeriesMeta& meta, EpochSeconds t, double v) {
        series = meta.ToString();
        seen.emplace_back(t, v);
      });
  std::vector<EpochSeconds> ts;
  std::vector<double> vs;
  MakeRun(300, &ts, &vs);
  ASSERT_TRUE(store.WriteSeries("m", TagSet{{"a", "b"}}, ts, vs).ok());
  ts.push_back(ts.back() - 5);  // rejected: the observer never sees it
  vs.push_back(0.0);
  EXPECT_FALSE(store.WriteSeries("m", TagSet{{"a", "b"}}, {ts.back()},
                                 {vs.back()})
                   .ok());
  store.SetWriteObserver(nullptr);
  EXPECT_EQ(series, "m{a=b}");
  ASSERT_EQ(seen.size(), 300u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, ts[i]);
    EXPECT_EQ(seen[i].second, vs[i]);
  }
}

TEST(StoreTest, AmbiguousTagSetsAreTwoSeries) {
  // Both tag sets render as "a=1,b=2", but they are different series.
  const TagSet joined{{"a", "1,b=2"}};
  const TagSet split{{"a", "1"}, {"b", "2"}};
  ASSERT_EQ(joined.Encode(), split.Encode());
  SeriesStore store;
  ASSERT_TRUE(store.Write("m", joined, 0, 1.0).ok());
  ASSERT_TRUE(store.Write("m", split, 0, 2.0).ok());
  ASSERT_TRUE(store.WriteSeries("m", joined, {60, 120}, {3.0, 4.0}).ok());
  EXPECT_EQ(store.num_series(), 2u);

  const std::string path = ::testing::TempDir() + "/ambiguous_tags.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  SeriesStore loaded;
  const Status st = loaded.LoadSnapshot(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(loaded.Write("m", split, 60, 5.0).ok());
  EXPECT_EQ(loaded.num_series(), 2u);
  for (const auto& [tags, values] :
       {std::pair{joined, std::vector<double>{1.0, 3.0, 4.0}},
        std::pair{split, std::vector<double>{2.0, 5.0}}}) {
    ScanRequest req;
    req.tag_filter = tags;
    auto res = loaded.Scan(req);
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res->size(), 1u);  // tag filters match per key
    EXPECT_EQ((*res)[0].meta.tags, tags);
    EXPECT_EQ((*res)[0].values, values);
  }
}

}  // namespace
}  // namespace explainit::tsdb

namespace explainit::tsdb {
namespace {

TEST(SnapshotTest, RoundTripPreservesEverything) {
  SeriesStore store = MakeStore();
  const std::string path = ::testing::TempDir() + "/snap.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  SeriesStore loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
  EXPECT_EQ(loaded.num_series(), store.num_series());
  EXPECT_EQ(loaded.num_points(), store.num_points());
  // Values decode identically.
  ScanRequest req;
  req.metric_glob = "disk";
  req.tag_filter = TagSet{{"host", "datanode-1"}};
  req.range = {0, 600};
  auto a = store.Scan(req);
  auto b = loaded.Scan(req);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  EXPECT_EQ((*a)[0].values, (*b)[0].values);
  EXPECT_EQ((*a)[0].timestamps, (*b)[0].timestamps);
  EXPECT_EQ((*a)[0].meta.tags.Encode(), (*b)[0].meta.tags.Encode());
}

TEST(SnapshotTest, WritesContinueAfterReload) {
  SeriesStore store;
  TagSet tags{{"h", "x"}};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Write("m", tags, i * 60, 1.0 + i).ok());
  }
  const std::string path = ::testing::TempDir() + "/snap2.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  SeriesStore loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
  // Appends continue the compressed stream seamlessly.
  for (int i = 5; i < 10; ++i) {
    ASSERT_TRUE(loaded.Write("m", tags, i * 60, 1.0 + i).ok());
  }
  ScanRequest req;
  req.range = {0, 600};
  auto scan = loaded.Scan(req);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ((*scan)[0].values.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*scan)[0].values[i], 1.0 + i);
  }
}

TEST(SnapshotTest, RejectsMissingAndCorruptFiles) {
  SeriesStore store;
  EXPECT_FALSE(store.LoadSnapshot("/nonexistent/nope.bin").ok());
  const std::string path = ::testing::TempDir() + "/corrupt.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage", f);
  std::fclose(f);
  EXPECT_FALSE(store.LoadSnapshot(path).ok());
}

TEST(SnapshotTest, TruncatedSnapshotFailsCleanly) {
  SeriesStore store = MakeStore();
  const std::string path = ::testing::TempDir() + "/trunc.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  // Truncate the file to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  SeriesStore loaded;
  EXPECT_FALSE(loaded.LoadSnapshot(path).ok());
}

TEST(SnapshotTest, TieredStateRoundTripsWithDirtyHead) {
  // Seal every 4 points, no background thread: 10 points leave two sealed
  // segments and a dirty 2-point head per series. The v2 snapshot must
  // carry all three tiers and rebuild rollups on load.
  StoreOptions opts;
  opts.seal_max_points = 4;
  opts.background_seal = false;
  SeriesStore store(opts);
  const TagSet tags{{"h", "x"}};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Write("m", tags, i * 60, 1.0 + i).ok());
  }
  ASSERT_EQ(store.storage_stats().sealed_segments, 2u);
  ASSERT_EQ(store.storage_stats().head_points, 2u);

  const std::string path = ::testing::TempDir() + "/tiered.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  SeriesStore loaded(opts);
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());

  const StorageStats st = loaded.storage_stats();
  EXPECT_EQ(st.sealed_segments, 2u);
  EXPECT_EQ(st.sealed_points, 8u);
  EXPECT_EQ(st.head_points, 2u);
  EXPECT_EQ(loaded.num_points(), 10u);

  ScanRequest req;
  auto a = store.Scan(req);
  auto b = loaded.Scan(req);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)[0].timestamps, (*b)[0].timestamps);
  EXPECT_EQ((*a)[0].values, (*b)[0].values);

  // Rollup tiers were rebuilt at load: a hinted scan of the loaded store
  // serves the sealed segments from the minute tier.
  loaded.ResetScanStats();
  req.hints.min_step_seconds = 60;
  req.hints.rollup = RollupAggregate::kSum;
  auto rolled = loaded.Scan(req);
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(loaded.scan_stats().segments_rollup_served, 2u);

  // Writes keep going after reload: the head stream continues and the
  // next seal threshold still fires.
  for (int i = 10; i < 14; ++i) {
    ASSERT_TRUE(loaded.Write("m", tags, i * 60, 1.0 + i).ok());
  }
  EXPECT_EQ(loaded.storage_stats().sealed_segments, 3u);
  auto grown = loaded.Scan(ScanRequest{});
  ASSERT_TRUE(grown.ok());
  ASSERT_EQ((*grown)[0].values.size(), 14u);
  for (int i = 0; i < 14; ++i) {
    EXPECT_EQ((*grown)[0].values[i], 1.0 + i);
  }
}

TEST(SnapshotTest, ReloadRestoresTheRetentionHighWater) {
  // Retention cuts relative to the newest point written. A reloaded
  // store must evict what the saved one would, before any new write.
  StoreOptions opts;
  opts.seal_max_points = 10;
  opts.background_seal = false;
  opts.retention_seconds = 600;
  SeriesStore store(opts);
  const TagSet tags{{"h", "x"}};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Write("m", tags, i * 60, 1.0 + i).ok());
  }
  const std::string path = ::testing::TempDir() + "/retention.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  SeriesStore loaded(opts);
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
  ASSERT_EQ(loaded.num_points(), store.num_points());

  const size_t evicted = store.EvictExpired();
  EXPECT_GE(evicted, 1u);
  EXPECT_EQ(loaded.EvictExpired(), evicted);
  EXPECT_EQ(loaded.num_points(), store.num_points());
}

TEST(SnapshotTest, ReloadRebuildsTheSeekIndex) {
  // 1000-point segments hold several checkpoints each. The index is not
  // in the snapshot; reload reseals every block and so rebuilds it, and
  // windowed scans of the reloaded store decode exactly as many points
  // and return exactly the same rows.
  StoreOptions opts;
  opts.seal_max_points = 1000;
  opts.background_seal = false;
  opts.compact_min_segments = 0;
  SeriesStore store(opts);
  for (int host = 0; host < 3; ++host) {
    const TagSet tags{{"host", "h" + std::to_string(host)}};
    for (int i = 0; i < 2500; ++i) {
      ASSERT_TRUE(
          store.Write("m", tags, i * 10, std::sin(i * 0.01) + host).ok());
    }
  }
  const StorageStats before = store.storage_stats();
  ASSERT_EQ(before.sealed_segments, 6u);
  ASSERT_EQ(before.index_bytes, 6 * 7 * sizeof(DecodeCheckpoint));

  const std::string path = ::testing::TempDir() + "/seek_index.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  SeriesStore loaded(opts);
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
  EXPECT_EQ(loaded.storage_stats().index_bytes, before.index_bytes);
  EXPECT_EQ(loaded.compressed_bytes(), store.compressed_bytes());

  for (const TimeRange w : {TimeRange{5000, 5600}, TimeRange{9990, 10010},
                            TimeRange{24000, 26000}}) {
    store.ResetScanStats();
    loaded.ResetScanStats();
    ScanRequest req;
    req.range = w;
    auto a = store.Scan(req);
    auto b = loaded.Scan(req);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].timestamps, (*b)[i].timestamps);
      EXPECT_EQ((*a)[i].values, (*b)[i].values);
    }
    EXPECT_EQ(loaded.scan_stats().points_decoded,
              store.scan_stats().points_decoded);
    // The seek keeps the decode well short of the whole segments.
    EXPECT_LT(loaded.scan_stats().points_decoded, 3 * 1000u);
  }
}

TEST(SnapshotTest, SeedV1FormatStillLoads) {
  // Hand-build a v1 (seed-format) snapshot byte stream: u32 magic "EXTS",
  // u64 series count, then per series metric / tag strings (u64 length
  // prefix) and a single compressed block. The tiered store must load it
  // with the block as the mutable head.
  CompressedBlock block;
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(block.Append(i * 60, 2.0 * static_cast<double>(i)).ok());
  }
  std::vector<uint8_t> buf;
  const uint32_t magic = 0x45585453;  // "EXTS"
  const uint64_t count = 1;
  buf.resize(sizeof(magic) + sizeof(count));
  std::memcpy(buf.data(), &magic, sizeof(magic));
  std::memcpy(buf.data() + sizeof(magic), &count, sizeof(count));
  auto put_string = [&buf](const std::string& s) {
    const uint64_t n = s.size();
    const size_t at = buf.size();
    buf.resize(at + sizeof(n) + s.size());
    std::memcpy(buf.data() + at, &n, sizeof(n));
    std::memcpy(buf.data() + at + sizeof(n), s.data(), s.size());
  };
  put_string("legacy");
  put_string("host=old-1");
  block.Serialize(&buf);

  const std::string path = ::testing::TempDir() + "/seed_v1.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
  std::fclose(f);

  SeriesStore loaded;
  ASSERT_TRUE(loaded.LoadSnapshot(path).ok());
  EXPECT_EQ(loaded.num_series(), 1u);
  EXPECT_EQ(loaded.num_points(), 6u);
  // v1 carried no segments: everything loads as head, nothing sealed.
  EXPECT_EQ(loaded.storage_stats().sealed_segments, 0u);
  EXPECT_EQ(loaded.storage_stats().head_points, 6u);

  ScanRequest req;
  auto res = loaded.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  EXPECT_EQ((*res)[0].meta.metric_name, "legacy");
  EXPECT_EQ((*res)[0].meta.tags.Get("host"), "old-1");
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ((*res)[0].timestamps[i], i * 60);
    EXPECT_EQ((*res)[0].values[i], 2.0 * static_cast<double>(i));
  }
  // A resave upgrades to the tiered (v2) format transparently.
  const std::string path2 = ::testing::TempDir() + "/seed_v1_resaved.bin";
  ASSERT_TRUE(loaded.SaveSnapshot(path2).ok());
  SeriesStore again;
  ASSERT_TRUE(again.LoadSnapshot(path2).ok());
  EXPECT_EQ(again.num_points(), 6u);
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<uint8_t> buf;
  if (f == nullptr) return buf;
  int c;
  while ((c = std::fgetc(f)) != EOF) buf.push_back(static_cast<uint8_t>(c));
  std::fclose(f);
  return buf;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& buf,
                size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(buf.data(), 1, size, f), size);
  std::fclose(f);
}

void PokeU64(std::vector<uint8_t>* buf, size_t offset, uint64_t v) {
  ASSERT_LE(offset + sizeof(v), buf->size());
  std::memcpy(buf->data() + offset, &v, sizeof(v));
}

/// Loads `buf` (its first `size` bytes) as a snapshot file.
Status LoadBytes(const std::vector<uint8_t>& buf, size_t size) {
  const std::string path = ::testing::TempDir() + "/corrupt_snap.bin";
  WriteBytes(path, buf, size);
  SeriesStore store;
  return store.LoadSnapshot(path);
}

/// Every strict prefix of a valid snapshot is a ParseError, never a
/// crash or a silently partial store.
void ExpectEveryTruncationIsParseError(const std::vector<uint8_t>& buf) {
  for (size_t size = 0; size < buf.size(); ++size) {
    const Status st = LoadBytes(buf, size);
    EXPECT_TRUE(st.IsParseError()) << "size " << size << ": " << st.ToString();
  }
}

/// Byte offsets of a one-series, no-segment snapshot's length fields.
struct SnapshotLayout {
  size_t metric_len;
  size_t segment_count;
  size_t block;  // the head block's header
};

SnapshotLayout LayoutAfterTags(size_t metric_size, size_t tags_size) {
  SnapshotLayout l;
  l.metric_len = sizeof(uint32_t) + sizeof(uint64_t);
  l.segment_count = l.metric_len + sizeof(uint64_t) + metric_size + tags_size;
  l.block = l.segment_count + sizeof(uint64_t);
  return l;
}

// CompressedBlock header: num_points, first_ts, prev_ts, prev_delta,
// value_bits (u64 each), leading, trailing (i32), bit_count, payload.
constexpr size_t kBlockNumPoints = 0;
constexpr size_t kBlockBitCount = 5 * 8 + 2 * 4;
constexpr size_t kBlockPayload = kBlockBitCount + 8;

void ExpectCorruptBlockFieldsAreParseErrors(std::vector<uint8_t> buf,
                                            const SnapshotLayout& l) {
  const uint64_t kHuge = ~uint64_t{0} - 3;  // 2^64 - 4
  const struct {
    const char* field;
    size_t offset;
  } fields[] = {
      {"metric length", l.metric_len},
      {"segment count", l.segment_count},
      {"block payload", l.block + kBlockPayload},
      {"block bit count", l.block + kBlockBitCount},
      {"block point count", l.block + kBlockNumPoints},
  };
  for (const auto& f : fields) {
    for (const uint64_t v : {kHuge, ~uint64_t{0}, uint64_t{1} << 40}) {
      std::vector<uint8_t> bad = buf;
      PokeU64(&bad, f.offset, v);
      const Status st = LoadBytes(bad, bad.size());
      EXPECT_TRUE(st.IsParseError())
          << f.field << " = " << v << ": " << st.ToString();
    }
  }
}

TEST(SnapshotTest, TagsWithSeparatorsRoundTrip) {
  // TagSet::Encode joins pairs with ',' and '=' unescaped, so the v2
  // format could save these tags but not load them back.
  SeriesStore store;
  const TagSet tags{{"cmd", "java -Xmx=4g,-server"},
                    {"empty", ""},
                    {"k=,", "a=b,c=d"}};
  const TagSet plain{{"cmd", "java"}};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Write("proc", tags, i * 60, 1.0 + i).ok());
    ASSERT_TRUE(store.Write("proc", plain, i * 60, 2.0 + i).ok());
  }
  const std::string path = ::testing::TempDir() + "/tag_separators.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  SeriesStore loaded;
  const Status st = loaded.LoadSnapshot(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(loaded.num_series(), 2u);
  EXPECT_EQ(loaded.num_points(), 10u);

  ScanRequest req;
  req.tag_filter = TagSet{{"empty", ""}};
  auto res = loaded.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  EXPECT_EQ((*res)[0].meta.tags.entries(), tags.entries());
  ASSERT_EQ((*res)[0].values.size(), 5u);
  EXPECT_EQ((*res)[0].values[4], 5.0);
  // Writes after the reload land on the same series, not a new one.
  ASSERT_TRUE(loaded.Write("proc", tags, 300, 6.0).ok());
  EXPECT_EQ(loaded.num_series(), 2u);
}

TEST(SnapshotTest, CorruptV3LengthFieldsAreParseErrors) {
  SeriesStore store;
  ASSERT_TRUE(store.Write("m", TagSet{{"h", "x"}}, 0, 1.0).ok());
  ASSERT_TRUE(store.Write("m", TagSet{{"h", "x"}}, 60, 2.5).ok());
  const std::string path = ::testing::TempDir() + "/v3.bin";
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  const std::vector<uint8_t> buf = ReadBytes(path);
  ASSERT_TRUE(LoadBytes(buf, buf.size()).ok());

  // v3 tags: u64 pair count, then u64-prefixed key "h" and value "x".
  const size_t tag_count = 4 + 8 + 8 + 1;
  const SnapshotLayout l = LayoutAfterTags(1, 8 + (8 + 1) + (8 + 1));
  uint32_t magic = 0;
  std::memcpy(&magic, buf.data(), sizeof(magic));
  ASSERT_EQ(magic, 0x33545845u);  // "EXT3"
  ExpectEveryTruncationIsParseError(buf);
  ExpectCorruptBlockFieldsAreParseErrors(buf, l);
  for (const size_t offset :
       {tag_count, tag_count + 8, tag_count + 8 + 8 + 1}) {
    std::vector<uint8_t> bad = buf;
    PokeU64(&bad, offset, ~uint64_t{0} - 3);
    const Status st = LoadBytes(bad, bad.size());
    EXPECT_TRUE(st.IsParseError()) << "offset " << offset << ": "
                                   << st.ToString();
  }
}

TEST(SnapshotTest, RejectsARepeatedSeries) {
  // A hand-built v3 file naming one series twice would load both copies:
  // counted and scanned twice while writes reach only one.
  CompressedBlock block;
  ASSERT_TRUE(block.Append(0, 1.0).ok());
  ASSERT_TRUE(block.Append(60, 2.0).ok());
  std::vector<uint8_t> buf;
  auto put_u64 = [&buf](uint64_t n) {
    const size_t at = buf.size();
    buf.resize(at + sizeof(n));
    std::memcpy(buf.data() + at, &n, sizeof(n));
  };
  auto put_string = [&](const std::string& s) {
    put_u64(s.size());
    buf.insert(buf.end(), s.begin(), s.end());
  };
  auto put_series = [&](const std::string& host) {
    put_string("m");
    put_u64(1);  // tag pairs
    put_string("host");
    put_string(host);
    put_u64(0);  // sealed segments
    block.Serialize(&buf);
  };
  const uint32_t magic = 0x33545845;  // "EXT3"
  buf.resize(sizeof(magic));
  std::memcpy(buf.data(), &magic, sizeof(magic));
  put_u64(3);
  put_series("a");
  put_series("b");
  const size_t two_series = buf.size();
  put_series("a");

  // The first two series alone are a valid snapshot.
  std::vector<uint8_t> valid(buf.begin(), buf.begin() + two_series);
  PokeU64(&valid, sizeof(magic), 2);
  const std::string path = ::testing::TempDir() + "/repeated_series.bin";
  WriteBytes(path, valid, valid.size());
  SeriesStore store;
  ASSERT_TRUE(store.LoadSnapshot(path).ok());
  EXPECT_EQ(store.num_series(), 2u);
  EXPECT_EQ(store.num_points(), 4u);

  const Status st = LoadBytes(buf, buf.size());
  EXPECT_TRUE(st.IsParseError()) << st.ToString();
  EXPECT_NE(st.ToString().find("m{host=a}"), std::string::npos)
      << st.ToString();
}

TEST(SnapshotTest, CorruptV2LengthFieldsAreParseErrors) {
  // Hand-build a v2 snapshot: u32 "EXT2", u64 series count, metric and
  // tag-encoding strings, u64 segment count (0), then the head block.
  CompressedBlock block;
  ASSERT_TRUE(block.Append(0, 1.0).ok());
  ASSERT_TRUE(block.Append(60, 2.5).ok());
  std::vector<uint8_t> buf;
  const uint32_t magic = 0x32545845;  // "EXT2"
  const uint64_t count = 1;
  buf.resize(sizeof(magic) + sizeof(count));
  std::memcpy(buf.data(), &magic, sizeof(magic));
  std::memcpy(buf.data() + sizeof(magic), &count, sizeof(count));
  auto put_u64 = [&buf](uint64_t n) {
    const size_t at = buf.size();
    buf.resize(at + sizeof(n));
    std::memcpy(buf.data() + at, &n, sizeof(n));
  };
  auto put_string = [&](const std::string& s) {
    put_u64(s.size());
    buf.insert(buf.end(), s.begin(), s.end());
  };
  put_string("m");
  put_string("h=x");
  put_u64(0);
  block.Serialize(&buf);
  ASSERT_TRUE(LoadBytes(buf, buf.size()).ok());

  const SnapshotLayout l = LayoutAfterTags(1, 8 + 3);
  ExpectEveryTruncationIsParseError(buf);
  ExpectCorruptBlockFieldsAreParseErrors(buf, l);
  std::vector<uint8_t> bad = buf;
  PokeU64(&bad, l.metric_len + 8 + 1, ~uint64_t{0} - 3);  // tag encoding
  EXPECT_TRUE(LoadBytes(bad, bad.size()).IsParseError());
}

TEST(StoreTest, ScanToTableHonoursProjectionHint) {
  SeriesStore store;
  const TagSet tags{{"host", "h0"}, {"dc", "d0"}};
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Write("cpu", tags, i * 60, i * 1.0).ok());
  }
  ScanRequest req;
  req.range = {0, 300};

  // No projection: all four standard columns.
  auto full = store.ScanToTable(req);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->num_columns(), 4u);
  EXPECT_EQ(full->num_rows(), 5u);

  // Projection naming two columns (case-insensitively): only those are
  // materialised, in the canonical order.
  req.hints.projection = {"VALUE", "timestamp"};
  auto pruned = store.ScanToTable(req);
  ASSERT_TRUE(pruned.ok());
  ASSERT_EQ(pruned->num_columns(), 2u);
  EXPECT_EQ(pruned->schema().field(0).name, "timestamp");
  EXPECT_EQ(pruned->schema().field(1).name, "value");
  EXPECT_EQ(pruned->num_rows(), 5u);
  EXPECT_EQ(pruned->At(2, 1).AsDouble(), 2.0);

  // A projection naming none of the standard columns keeps all four so
  // "column not found" errors surface with their natural wording.
  req.hints.projection = {"bogus"};
  auto fallback = store.ScanToTable(req);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback->num_columns(), 4u);
}

}  // namespace
}  // namespace explainit::tsdb
