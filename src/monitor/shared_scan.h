// The standing query's shared, incrementally-maintained window scan.
//
// A monitor's target / GIVEN / USING sub-selects all reference the same
// store-backed table; one-shot EXPLAIN scans it once per sub-select. A
// SharedWindowScan instead materialises the current window once per run
// (multi-consumer: every sub-select reads the same materialisation
// through a catalog provider overlay), and carries the per-series point
// vectors across window slides — only the delta interval beyond what is
// already cached is decoded from the store; the overlap is spliced.
//
// Correctness contract (documented, asserted by the parity bench): the
// splice is exact under *store-monotone arrival* — every new write's
// data timestamp is >= the highest timestamp the cache has seen (the
// collector-tick model; the simulator's StreamTo streams time-major).
// The delta scan starts at min(previous window end, cached high-water),
// so a window that ran ahead of the ingest frontier is re-fetched from
// the frontier, and per-series dedupe keeps re-fetched points unique. A
// series appearing for the first time inside the delta forces one full
// rescan (its older in-window points were never decoded).
//
// The materialised table is byte-identical to SeriesStore::ScanToTable
// over the same window: both build it with tsdb::SeriesTable from the
// same series in the same order (store creation order), so the cached
// window carries the same series-coded metric_name and tag columns.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/time_util.h"
#include "table/table.h"
#include "tsdb/store.h"

namespace explainit::monitor {

struct SharedScanStats {
  size_t store_scans = 0;   // Scan() calls issued to the store
  size_t full_scans = 0;    // windows materialised from scratch
  size_t delta_scans = 0;   // windows spliced from cache + delta
  size_t rows_reused = 0;   // cached points carried across slides
  size_t rows_delta = 0;    // points decoded from delta scans
  size_t consumer_reads = 0;  // Get() calls served from one window
};

/// One monitor's cached scan over a store table. Not tied to a catalog
/// name: the monitor overlays it as a (non-hinted) provider, so the
/// planner keeps every WHERE conjunct in residual filters and the cache
/// only has to reproduce the raw window contents.
class SharedWindowScan {
 public:
  /// `store` is borrowed and must outlive this object (the owning
  /// monitor service already requires the engine to outlive it).
  SharedWindowScan(tsdb::SeriesStore* store, std::string metric_glob = "*");

  /// Positions the cache on the half-open window [window.start,
  /// window.end): first call scans fully; subsequent forward slides
  /// splice the overlap and scan only the delta.
  Status SetWindow(const TimeRange& window);

  /// The materialised window table (schema: timestamp, metric_name, tag,
  /// value). Built lazily once per window; every consumer gets a copy of
  /// the same materialisation. Thread-safe.
  Result<table::Table> Get();

  const TimeRange& window() const { return window_; }
  SharedScanStats stats() const;

 private:
  Status RefreshFull(const TimeRange& window);
  Status RefreshDelta(const TimeRange& window);
  void ReindexAndRecount();

  tsdb::SeriesStore* store_;
  std::string metric_glob_;

  mutable std::mutex mutex_;
  TimeRange window_{0, 0};
  bool have_cache_ = false;
  /// Highest timestamp the cache has observed (across full + delta
  /// scans) — the monotone-arrival frontier.
  EpochSeconds frontier_ = 0;
  /// Per-series cached points within the current window, in store
  /// creation order. Series whose points all slid out stay (empty) so
  /// their cache slot and order survive; empty series are skipped when
  /// materialising, matching a fresh store scan.
  std::vector<tsdb::SeriesData> series_;
  std::unordered_map<std::string, size_t> index_;  // series key -> slot
  std::optional<table::Table> table_;              // lazy materialisation
  SharedScanStats stats_;
};

}  // namespace explainit::monitor
