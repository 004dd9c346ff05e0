#include "monitor/shared_scan.h"

#include <algorithm>
#include <limits>

namespace explainit::monitor {

namespace {

std::string SeriesKey(const tsdb::SeriesMeta& meta) { return meta.ToString(); }

}  // namespace

SharedWindowScan::SharedWindowScan(tsdb::SeriesStore* store,
                                   std::string metric_glob)
    : store_(store), metric_glob_(std::move(metric_glob)) {}

Status SharedWindowScan::SetWindow(const TimeRange& window) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (window.end < window.start) {
    return Status::InvalidArgument("shared scan window is inverted");
  }
  const bool forward_overlap =
      have_cache_ && window.start >= window_.start &&
      window.end >= window_.end && window.start < window_.end;
  if (forward_overlap) return RefreshDelta(window);
  return RefreshFull(window);
}

Status SharedWindowScan::RefreshFull(const TimeRange& window) {
  tsdb::ScanRequest req;
  req.metric_glob = metric_glob_;
  req.range = window;
  EXPLAINIT_ASSIGN_OR_RETURN(series_, store_->Scan(req));
  ++stats_.store_scans;
  ++stats_.full_scans;
  ReindexAndRecount();
  window_ = window;
  have_cache_ = true;
  table_.reset();
  return Status::OK();
}

void SharedWindowScan::ReindexAndRecount() {
  index_.clear();
  frontier_ = std::numeric_limits<EpochSeconds>::min();
  for (size_t i = 0; i < series_.size(); ++i) {
    index_[SeriesKey(series_[i].meta)] = i;
    if (!series_[i].timestamps.empty()) {
      frontier_ = std::max(frontier_, series_[i].timestamps.back());
    }
  }
}

Status SharedWindowScan::RefreshDelta(const TimeRange& window) {
  // Trim points that slid out of the new window's front.
  size_t reused = 0;
  for (tsdb::SeriesData& s : series_) {
    size_t drop = 0;
    while (drop < s.timestamps.size() && s.timestamps[drop] < window.start) {
      ++drop;
    }
    if (drop > 0) {
      s.timestamps.erase(s.timestamps.begin(),
                         s.timestamps.begin() + static_cast<long>(drop));
      s.values.erase(s.values.begin(),
                     s.values.begin() + static_cast<long>(drop));
    }
    reused += s.timestamps.size();
  }

  // Delta interval: everything past what the cache is guaranteed to hold.
  // A window that outran the ingest frontier re-fetches from the
  // frontier; per-series dedupe below keeps re-fetched points unique.
  EpochSeconds delta_lo = window_.end;
  if (frontier_ != std::numeric_limits<EpochSeconds>::min()) {
    delta_lo = std::min(delta_lo, frontier_);
  } else {
    delta_lo = window_.start;  // cache never saw a point
  }
  delta_lo = std::max(delta_lo, window.start);

  size_t appended = 0;
  if (delta_lo < window.end) {
    tsdb::ScanRequest req;
    req.metric_glob = metric_glob_;
    req.range = TimeRange{delta_lo, window.end};
    EXPLAINIT_ASSIGN_OR_RETURN(auto delta, store_->Scan(req));
    ++stats_.store_scans;
    for (tsdb::SeriesData& d : delta) {
      auto it = index_.find(SeriesKey(d.meta));
      if (it == index_.end()) {
        // First sighting of this series: its points older than delta_lo
        // (but inside the window) were never decoded — fall back to one
        // full rescan, which also restores store creation order.
        return RefreshFull(window);
      }
      tsdb::SeriesData& s = series_[it->second];
      const EpochSeconds last = s.timestamps.empty()
                                    ? std::numeric_limits<EpochSeconds>::min()
                                    : s.timestamps.back();
      for (size_t i = 0; i < d.timestamps.size(); ++i) {
        if (d.timestamps[i] <= last) continue;  // re-fetched overlap
        s.timestamps.push_back(d.timestamps[i]);
        s.values.push_back(d.values[i]);
        ++appended;
        frontier_ = frontier_ == std::numeric_limits<EpochSeconds>::min()
                        ? d.timestamps[i]
                        : std::max(frontier_, d.timestamps[i]);
      }
    }
  }

  ++stats_.delta_scans;
  stats_.rows_reused += reused;
  stats_.rows_delta += appended;
  window_ = window;
  table_.reset();
  return Status::OK();
}

Result<table::Table> SharedWindowScan::Get() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!have_cache_) {
    return Status::FailedPrecondition(
        "shared scan read before SetWindow positioned it");
  }
  if (!table_.has_value()) table_ = tsdb::SeriesTable(series_);
  ++stats_.consumer_reads;
  return *table_;
}

SharedScanStats SharedWindowScan::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace explainit::monitor
