// Write/scan concurrency stress over the tiered store. Scans snapshot
// each series under its stripe lock (sealed segments by shared_ptr, head
// by block copy), so a reader racing the writers — and the background
// sealer — must always observe a prefix-consistent history: timestamps
// strictly increasing and every value matching its timestamp. Run under
// TSan by ci/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "tsdb/rollup.h"
#include "tsdb/store.h"

namespace explainit::tsdb {
namespace {

constexpr size_t kWriters = 4;
constexpr size_t kReaders = 3;
constexpr int64_t kPointsPerWriter = 2000;

// value == timestamp lets a reader validate any observed prefix without
// coordination: a torn or non-prefix snapshot breaks one of the asserts.
void CheckSeries(const SeriesData& s) {
  ASSERT_EQ(s.timestamps.size(), s.values.size());
  for (size_t i = 0; i < s.timestamps.size(); ++i) {
    if (i > 0) ASSERT_LT(s.timestamps[i - 1], s.timestamps[i]);
    ASSERT_EQ(s.values[i], static_cast<double>(s.timestamps[i]));
  }
}

TEST(ConcurrencyTest, ParallelWritersAndScannersStayConsistent) {
  StoreOptions opts;
  opts.seal_max_points = 64;  // seal often so scans cross tiers
  opts.seal_max_bytes = 1 << 20;
  opts.background_seal = true;
  opts.compact_min_segments = 4;
  SeriesStore store(opts);

  std::atomic<bool> done{false};
  std::atomic<size_t> scans_run{0};
  std::vector<std::thread> threads;

  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, w] {
      const TagSet tags{{"writer", std::to_string(w)}};
      for (int64_t i = 0; i < kPointsPerWriter; ++i) {
        const int64_t ts = i * 10;
        ASSERT_TRUE(
            store.Write("stress", tags, ts, static_cast<double>(ts)).ok());
      }
    });
  }

  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&store, &done, &scans_run, r] {
      // do-while: at least one scan even if the writers (and `done`)
      // beat this thread's first iteration on a small machine.
      do {
        ScanRequest req;
        if (r == 0) {
          // One reader exercises the rollup route concurrently with
          // sealing; the others scan raw.
          req.hints.min_step_seconds = 60;
          req.hints.rollup = RollupAggregate::kMax;
        }
        auto res = store.Scan(req);
        ASSERT_TRUE(res.ok());
        for (const SeriesData& s : *res) {
          if (r == 0) {
            // Rollup rows carry bucket timestamps. Segments sealed
            // mid-bucket each emit a row for the shared bucket, so the
            // sequence is non-decreasing rather than strict.
            ASSERT_EQ(s.timestamps.size(), s.values.size());
            for (size_t i = 1; i < s.timestamps.size(); ++i) {
              ASSERT_LE(s.timestamps[i - 1], s.timestamps[i]);
            }
          } else {
            CheckSeries(s);
          }
        }
        scans_run.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }

  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t r = 0; r < kReaders; ++r) threads[kWriters + r].join();

  // Quiesce: every head sealed, background queue drained, no deferred
  // maintenance errors.
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_GT(scans_run.load(), 0u);
  EXPECT_EQ(store.num_series(), kWriters);
  EXPECT_EQ(store.num_points(),
            kWriters * static_cast<size_t>(kPointsPerWriter));

  auto final = store.Scan(ScanRequest{});
  ASSERT_TRUE(final.ok());
  ASSERT_EQ(final->size(), kWriters);
  for (const SeriesData& s : *final) {
    ASSERT_EQ(s.timestamps.size(), static_cast<size_t>(kPointsPerWriter));
    CheckSeries(s);
  }
  const StorageStats st = store.storage_stats();
  EXPECT_GT(st.seals, 0u);
  EXPECT_EQ(st.head_points, 0u);
}

TEST(ConcurrencyTest, ConcurrentFlushAndWritesDontLosePoints) {
  StoreOptions opts;
  opts.seal_max_points = 32;
  opts.background_seal = true;
  SeriesStore store(opts);

  std::thread writer([&store] {
    for (int64_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(store.Write("m", TagSet{}, i, static_cast<double>(i)).ok());
    }
  });
  std::thread flusher([&store] {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(store.Flush().ok());
    }
  });
  writer.join();
  flusher.join();
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(store.num_points(), 1000u);
  auto res = store.Scan(ScanRequest{});
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  CheckSeries((*res)[0]);
  EXPECT_EQ((*res)[0].timestamps.size(), 1000u);
}

TEST(ConcurrencyTest, BackgroundSealedWriteSeriesBesideScans) {
  // One long WriteSeries run holds its stripe lock while it appends and
  // drops it at every seal threshold; scans of the other series (128 of
  // them, so every stripe holds some) and of the run's own series proceed
  // beside it and always see a prefix.
  StoreOptions opts;
  opts.seal_max_points = 512;
  opts.seal_max_bytes = 1 << 20;
  opts.background_seal = true;
  opts.compact_min_segments = 8;
  SeriesStore store(opts);
  constexpr size_t kOthers = 128;
  constexpr int64_t kOtherPoints = 50;
  for (size_t i = 0; i < kOthers; ++i) {
    const TagSet tags{{"id", std::to_string(i)}};
    for (int64_t t = 0; t < kOtherPoints; ++t) {
      ASSERT_TRUE(store.Write("other", tags, t, static_cast<double>(t)).ok());
    }
  }
  constexpr int64_t kRun = 100000;
  std::vector<EpochSeconds> ts(kRun);
  std::vector<double> vs(kRun);
  for (int64_t t = 0; t < kRun; ++t) {
    ts[t] = t;
    vs[t] = static_cast<double>(t);
  }

  std::atomic<bool> done{false};
  std::atomic<size_t> scans{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      ScanRequest req;
      req.metric_glob = r == 0 ? "other" : "bulk";
      do {
        auto res = store.Scan(req);
        ASSERT_TRUE(res.ok());
        if (r == 0) {
          ASSERT_EQ(res->size(), kOthers);
          for (const SeriesData& s : *res) {
            ASSERT_EQ(s.timestamps.size(), static_cast<size_t>(kOtherPoints));
          }
        }
        for (const SeriesData& s : *res) CheckSeries(s);
        scans.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }
  const Status st = store.WriteSeries("bulk", TagSet{}, ts, vs);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(scans.load(), 2u);

  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(store.num_points(), kOthers * kOtherPoints + kRun);
  ScanRequest req;
  req.metric_glob = "bulk";
  auto res = store.Scan(req);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  ASSERT_EQ((*res)[0].timestamps.size(), static_cast<size_t>(kRun));
  CheckSeries((*res)[0]);
  EXPECT_GT(store.storage_stats().seals, 1u);
}

}  // namespace
}  // namespace explainit::tsdb
