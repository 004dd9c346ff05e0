#include "tsdb/store.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>

#include "common/strings.h"
#include "exec/worker_pool.h"
#include "tsdb/head.h"

namespace explainit::tsdb {

std::string SeriesMeta::ToString() const {
  std::string out = metric_name;
  out += '{';
  out += tags.Encode();
  out += '}';
  return out;
}

TimeRange ScanRequest::EffectiveRange() const {
  if (!hints.range.has_value()) return range;
  if (range.end == range.start) return *hints.range;
  return TimeRange{std::max(range.start, hints.range->start),
                   std::min(range.end, hints.range->end)};
}

namespace {

/// Minimum matched-series count before a scan fans out over the pool;
/// below this the thread handoff costs more than the decode.
constexpr size_t kParallelScanThreshold = 64;

/// A series' structural identity, (metric, tags), by reference: the
/// series map's key. Keys point into their entry's immutable `meta`, and
/// lookups point at the caller's arguments, so resolving a series builds
/// and allocates no key string. Equality compares the metric and every
/// tag pair, so no tag text can alias another tag set (a joined string
/// key read {a: "1,b=2"} and {a: "1", b: "2"} as one series).
struct SeriesIdentity {
  const std::string* metric_name;
  const TagSet* tags;

  bool operator==(const SeriesIdentity& o) const {
    return *metric_name == *o.metric_name && *tags == *o.tags;
  }
};

struct SeriesIdentityHash {
  size_t operator()(const SeriesIdentity& id) const {
    const std::hash<std::string> hash;
    size_t h = hash(*id.metric_name);
    // Boost's hash_combine mixing; pairs are visited in key order.
    auto mix = [&h](size_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    for (const auto& [key, value] : id.tags->entries()) {
      mix(hash(key));
      mix(hash(value));
    }
    return h;
  }
};

table::Value MakeTagsValue(const TagSet& tags) {
  table::ValueMap map;
  for (const auto& [k, v] : tags.entries()) {
    map[k] = table::Value::String(v);
  }
  return table::Value::Map(std::move(map));
}

}  // namespace

/// One series of the tiered store. `meta`/`tags_value`/`stripe` are
/// immutable after creation; the tier state below them is guarded by the
/// owning stripe's mutex in SeriesStore::Impl.
struct SeriesEntry {
  SeriesMeta meta;
  table::Value tags_value;
  size_t stripe = 0;

  SeriesHead head;
  std::vector<std::shared_ptr<const SealedSegment>> segments;
  /// A background maintenance task for this series is queued (suppresses
  /// duplicate submissions from subsequent writes).
  bool maintenance_scheduled = false;
};

struct SeriesStore::Impl {
  static constexpr size_t kStripeCount = 16;

  StoreOptions options;

  /// Guards the series map/order only (not the entries' tier state).
  /// Writers take it shared on the hot path; only first-write-of-a-series
  /// and LoadSnapshot take it exclusive.
  mutable std::shared_mutex map_mutex;
  std::unordered_map<SeriesIdentity, std::shared_ptr<SeriesEntry>,
                     SeriesIdentityHash>
      by_key;
  std::vector<std::shared_ptr<SeriesEntry>> order;  // creation order

  /// Lock stripes for entry tier state; a series maps to a fixed stripe
  /// by key hash. Appends, seals and compactions of a series all run
  /// under its stripe; scans only take it long enough to copy the head
  /// block and the segment pointer vector.
  mutable std::array<std::mutex, kStripeCount> stripe_mutexes;

  std::atomic<size_t> total_points{0};
  std::atomic<size_t> seals{0};
  std::atomic<size_t> compactions{0};

  /// High-water data timestamp across all series (INT64_MIN until the
  /// first write) — the retention cutoff reference, so TTL is measured
  /// in data time, not wall time.
  std::atomic<int64_t> max_timestamp{std::numeric_limits<int64_t>::min()};
  std::atomic<size_t> retention_evicted_segments{0};
  std::atomic<size_t> retention_evicted_points{0};
  /// Writes since the last background retention sweep was queued.
  std::atomic<size_t> writes_since_sweep{0};
  static constexpr size_t kRetentionSweepInterval = 4096;

  /// Post-write observer (the monitor layer's anomaly-detector tap).
  /// has_observer is the hot-path gate: writers pay one relaxed load
  /// when no observer is installed.
  std::shared_mutex observer_mutex;
  std::shared_ptr<const SeriesStore::WriteObserver> observer;
  std::atomic<bool> has_observer{false};

  mutable std::mutex stats_mutex;
  ScanStats scan_stats;  // guarded by stats_mutex

  std::mutex error_mutex;
  Status background_error = Status::OK();  // first background-seal failure

  /// Shared worker pool (borrowed; the process-wide pool unless the
  /// options injected another). Scans fan out over it directly; the
  /// maintenance group below serialises sealing/compaction on it.
  exec::WorkerPool* pool;

  /// Serialised background maintenance (sealing/compaction), used only
  /// when options.background_seal. Declared last so it is destroyed
  /// first: its destructor drains every in-flight task while all the
  /// members those tasks touch are still alive. max_concurrency 1
  /// preserves the old single-threaded maintenance ordering without
  /// dedicating a thread, and keeps a scan's ParallelForChunks from
  /// waiting on (or stealing exceptions from) maintenance work — task
  /// groups are isolated per caller.
  std::unique_ptr<exec::TaskGroup> maintenance_group;

  explicit Impl(StoreOptions opts)
      : options(opts),
        pool(opts.worker_pool != nullptr ? opts.worker_pool
                                         : &exec::WorkerPool::Global()) {
    if (options.background_seal) {
      maintenance_group =
          std::make_unique<exec::TaskGroup>(pool, /*max_concurrency=*/1);
    }
  }

  std::mutex& StripeFor(const SeriesEntry& e) const {
    return stripe_mutexes[e.stripe];
  }

  std::shared_ptr<SeriesEntry> GetOrCreate(const std::string& metric_name,
                                           const TagSet& tags) {
    const SeriesIdentity probe{&metric_name, &tags};
    {
      std::shared_lock<std::shared_mutex> lock(map_mutex);
      auto it = by_key.find(probe);
      if (it != by_key.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(map_mutex);
    auto it = by_key.find(probe);
    if (it != by_key.end()) return it->second;
    auto e = std::make_shared<SeriesEntry>();
    e->meta.metric_name = metric_name;
    e->meta.tags = tags;
    e->tags_value = MakeTagsValue(tags);
    e->stripe = SeriesIdentityHash{}(probe) % kStripeCount;
    by_key.emplace(SeriesIdentity{&e->meta.metric_name, &e->meta.tags}, e);
    order.push_back(e);
    return e;
  }

  bool ShouldSeal(const SeriesHead& head) const {
    if (head.empty()) return false;
    if (head.num_points() >= options.seal_max_points) return true;
    if (head.byte_size() >= options.seal_max_bytes) return true;
    return options.seal_max_age_seconds > 0 &&
           head.AgeSeconds() >= options.seal_max_age_seconds;
  }

  /// Seals the entry's head into a new segment; stripe lock must be held.
  /// Seals from a copy so a (never-expected) decode failure loses nothing.
  Status SealLocked(SeriesEntry& e) {
    if (e.head.empty()) return Status::OK();
    EXPLAINIT_ASSIGN_OR_RETURN(auto segment,
                               SealedSegment::Seal(e.head.block()));
    e.head.Take();  // reset; the sealed copy now owns the points
    e.segments.push_back(std::move(segment));
    seals.fetch_add(1, std::memory_order_relaxed);
    return MaybeCompactLocked(e, options.compact_min_segments);
  }

  /// Merges the entry's segments into one when it has at least
  /// `min_segments` (0 disables); stripe lock must be held.
  Status MaybeCompactLocked(SeriesEntry& e, size_t min_segments) {
    if (min_segments == 0 || e.segments.size() < min_segments ||
        e.segments.size() < 2) {
      return Status::OK();
    }
    EXPLAINIT_ASSIGN_OR_RETURN(auto merged, SealedSegment::Merge(e.segments));
    e.segments.clear();
    e.segments.push_back(std::move(merged));
    compactions.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  void RecordBackgroundError(const Status& status) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (background_error.ok()) background_error = status;
  }

  /// Retention cutoff in data time; nullopt when retention is disabled
  /// or nothing has been written yet.
  std::optional<EpochSeconds> RetentionCutoff() const {
    if (options.retention_seconds <= 0) return std::nullopt;
    const int64_t high = max_timestamp.load(std::memory_order_relaxed);
    if (high == std::numeric_limits<int64_t>::min()) return std::nullopt;
    return high - options.retention_seconds;
  }

  /// Drops the entry's fully expired sealed segments (newest point older
  /// than `cutoff`); stripe lock must be held. Snapshot scans stay safe:
  /// in-flight readers hold shared_ptr copies of the segment vector.
  size_t EvictExpiredLocked(SeriesEntry& e, EpochSeconds cutoff) {
    size_t evicted = 0;
    size_t points = 0;
    auto& segs = e.segments;
    auto keep = segs.begin();
    for (auto it = segs.begin(); it != segs.end(); ++it) {
      if ((*it)->max_timestamp() < cutoff) {
        ++evicted;
        points += (*it)->num_points();
      } else {
        *keep++ = std::move(*it);
      }
    }
    segs.erase(keep, segs.end());
    if (evicted > 0) {
      retention_evicted_segments.fetch_add(evicted,
                                           std::memory_order_relaxed);
      retention_evicted_points.fetch_add(points, std::memory_order_relaxed);
      total_points.fetch_sub(points, std::memory_order_relaxed);
    }
    return evicted;
  }

  /// Store-wide retention sweep (background task and EvictExpired body).
  size_t SweepRetention() {
    const auto cutoff = RetentionCutoff();
    if (!cutoff.has_value()) return 0;
    size_t evicted = 0;
    for (const auto& e : SnapshotOrder()) {
      std::lock_guard<std::mutex> lock(StripeFor(*e));
      evicted += EvictExpiredLocked(*e, *cutoff);
    }
    return evicted;
  }

  /// The background maintenance task for one series.
  void Maintain(const std::shared_ptr<SeriesEntry>& e) {
    std::lock_guard<std::mutex> lock(StripeFor(*e));
    e->maintenance_scheduled = false;
    if (const auto cutoff = RetentionCutoff(); cutoff.has_value()) {
      EvictExpiredLocked(*e, *cutoff);
    }
    if (!ShouldSeal(e->head)) return;  // a flush got here first
    const Status status = SealLocked(*e);
    if (!status.ok()) RecordBackgroundError(status);
  }

  std::vector<std::shared_ptr<SeriesEntry>> SnapshotOrder() const {
    std::shared_lock<std::shared_mutex> lock(map_mutex);
    return order;
  }

  /// The one write path (Write is a run of one): resolves the series
  /// once and appends the run under its stripe lock, sealing inline or
  /// scheduling maintenance after every point exactly as a loop of
  /// single writes would. Stops at the first rejected point, keeping the
  /// points before it. The store-wide counters move once per run (and
  /// before any maintenance the run schedules), and the observer then
  /// sees every appended point in order, outside the stripe lock.
  Status AppendRun(const std::string& metric_name, const TagSet& tags,
                   const EpochSeconds* timestamps, const double* values,
                   size_t n) {
    std::shared_ptr<SeriesEntry> e = GetOrCreate(metric_name, tags);
    Status status = Status::OK();
    size_t written = 0;
    size_t counted = 0;  // points already added to the store counters
    // Counts points [counted, upto) and raises the high-water timestamp
    // (fetch-max; the retention cutoff reference) to the last of them: a
    // run's timestamps never decrease.
    auto publish = [&](size_t upto) {
      if (upto == counted) return;
      total_points.fetch_add(upto - counted, std::memory_order_relaxed);
      counted = upto;
      const int64_t last = timestamps[upto - 1];
      int64_t seen = max_timestamp.load(std::memory_order_relaxed);
      while (last > seen && !max_timestamp.compare_exchange_weak(
                                seen, last, std::memory_order_relaxed)) {
      }
    };
    {
      std::unique_lock<std::mutex> lock(StripeFor(*e));
      // Appends since the lock was last taken. A background-sealed run
      // drops the lock whenever its head reaches the seal threshold, and
      // again every head's worth of appends while the maintenance task
      // has not sealed it yet, so scans and that task never wait longer.
      size_t held = 0;
      for (; written < n; ++written) {
        status = e->head.Append(timestamps[written], values[written]);
        if (!status.ok()) break;
        ++held;
        if (!ShouldSeal(e->head)) continue;
        if (!options.background_seal) {
          status = SealLocked(*e);
          if (!status.ok()) {
            ++written;  // appended; only its seal failed
            break;
          }
          continue;
        }
        const bool schedule = !e->maintenance_scheduled;
        if (!schedule && held < options.seal_max_points) continue;
        e->maintenance_scheduled = true;
        lock.unlock();
        publish(written + 1);
        if (schedule) {
          maintenance_group->Submit([this, e] { Maintain(e); },
                                    "tsdb.maintenance");
        }
        held = 0;
        lock.lock();
      }
    }
    if (written == 0) return status;
    publish(written);
    if (has_observer.load(std::memory_order_acquire)) {
      // Invoked under the shared lock so SetWriteObserver (unique lock)
      // doubles as a quiescence barrier: once it returns, no thread is
      // still inside the old observer.
      std::shared_lock<std::shared_mutex> lock(observer_mutex);
      if (observer && *observer) {
        for (size_t i = 0; i < written; ++i) {
          (*observer)(e->meta, timestamps[i], values[i]);
        }
      }
    }
    // Periodic store-wide retention sweep: series that stopped receiving
    // writes never hit Maintain, so their expired segments are swept here.
    if (options.retention_seconds > 0 && maintenance_group &&
        writes_since_sweep.fetch_add(written, std::memory_order_relaxed) +
                written >=
            kRetentionSweepInterval) {
      writes_since_sweep.store(0, std::memory_order_relaxed);
      maintenance_group->Submit([this] { SweepRetention(); },
                                "tsdb.maintenance");
    }
    return status;
  }
};

SeriesStore::SeriesStore(StoreOptions options)
    : impl_(std::make_unique<Impl>(options)) {}
SeriesStore::~SeriesStore() = default;
SeriesStore::SeriesStore(SeriesStore&&) noexcept = default;
SeriesStore& SeriesStore::operator=(SeriesStore&&) noexcept = default;

const StoreOptions& SeriesStore::options() const { return impl_->options; }

Status SeriesStore::Write(const std::string& metric_name, const TagSet& tags,
                          EpochSeconds timestamp, double value) {
  return impl_->AppendRun(metric_name, tags, &timestamp, &value, 1);
}

void SeriesStore::SetWriteObserver(WriteObserver observer) {
  const bool installed = static_cast<bool>(observer);
  auto shared = installed
                    ? std::make_shared<const WriteObserver>(std::move(observer))
                    : nullptr;
  std::unique_lock<std::shared_mutex> lock(impl_->observer_mutex);
  impl_->observer = std::move(shared);
  impl_->has_observer.store(installed, std::memory_order_release);
}

size_t SeriesStore::EvictExpired() { return impl_->SweepRetention(); }

Status SeriesStore::WriteSeries(const std::string& metric_name,
                                const TagSet& tags,
                                const std::vector<EpochSeconds>& timestamps,
                                const std::vector<double>& values) {
  if (timestamps.size() != values.size()) {
    return Status::InvalidArgument("timestamps/values size mismatch");
  }
  if (timestamps.empty()) return Status::OK();
  return impl_->AppendRun(metric_name, tags, timestamps.data(), values.data(),
                          timestamps.size());
}

size_t SeriesStore::num_series() const {
  std::shared_lock<std::shared_mutex> lock(impl_->map_mutex);
  return impl_->order.size();
}

size_t SeriesStore::num_points() const {
  return impl_->total_points.load(std::memory_order_relaxed);
}

size_t SeriesStore::compressed_bytes() const {
  size_t total = 0;
  for (const auto& e : impl_->SnapshotOrder()) {
    std::lock_guard<std::mutex> lock(impl_->StripeFor(*e));
    total += e->head.byte_size();
    for (const auto& seg : e->segments) total += seg->byte_size();
  }
  return total;
}

Status SeriesStore::Flush() {
  // Drain queued maintenance first so no task races the inline seals
  // below into double-sealing decisions (Maintain re-checks thresholds
  // under the stripe lock, so the race would be benign — this just makes
  // the post-Flush state deterministic).
  if (impl_->maintenance_group) impl_->maintenance_group->Wait();
  for (const auto& e : impl_->SnapshotOrder()) {
    std::lock_guard<std::mutex> lock(impl_->StripeFor(*e));
    EXPLAINIT_RETURN_IF_ERROR(impl_->SealLocked(*e));
  }
  std::lock_guard<std::mutex> lock(impl_->error_mutex);
  Status first = impl_->background_error;
  impl_->background_error = Status::OK();
  return first;
}

Status SeriesStore::Compact() {
  EXPLAINIT_RETURN_IF_ERROR(Flush());
  for (const auto& e : impl_->SnapshotOrder()) {
    std::lock_guard<std::mutex> lock(impl_->StripeFor(*e));
    EXPLAINIT_RETURN_IF_ERROR(impl_->MaybeCompactLocked(*e, 2));
  }
  return Status::OK();
}

std::vector<SeriesMeta> SeriesStore::ListSeries() const {
  std::vector<SeriesMeta> out;
  auto entries = impl_->SnapshotOrder();
  out.reserve(entries.size());
  for (const auto& e : entries) out.push_back(e->meta);
  return out;
}

StorageStats SeriesStore::storage_stats() const {
  StorageStats stats;
  stats.seals = impl_->seals.load(std::memory_order_relaxed);
  stats.compactions = impl_->compactions.load(std::memory_order_relaxed);
  stats.retention_evicted_segments =
      impl_->retention_evicted_segments.load(std::memory_order_relaxed);
  stats.retention_evicted_points =
      impl_->retention_evicted_points.load(std::memory_order_relaxed);
  for (const auto& e : impl_->SnapshotOrder()) {
    std::lock_guard<std::mutex> lock(impl_->StripeFor(*e));
    stats.sealed_segments += e->segments.size();
    stats.head_points += e->head.num_points();
    for (const auto& seg : e->segments) {
      stats.sealed_points += seg->num_points();
      stats.index_bytes += seg->index_bytes();
    }
  }
  return stats;
}

namespace {

/// A prefix-consistent snapshot of one series' tier state, captured under
/// its stripe lock: segment pointers (immutable payloads) plus a copy of
/// the in-progress head block. Everything after capture is lock-free.
struct SeriesSnapshot {
  std::vector<std::shared_ptr<const SealedSegment>> segments;
  CompressedBlock head;
};

// The effective metric constraint of `request`, as ScanStats reports it.
std::string MetricConstraintText(const ScanRequest& request) {
  if (!request.hints.metric_names.has_value()) return request.metric_glob;
  const std::vector<std::string>& names = *request.hints.metric_names;
  const std::string text =
      names.size() == 1 ? names.front() : "{" + StrJoin(names, ",") + "}";
  return request.metric_glob == "*" ? text
                                    : request.metric_glob + "&" + text;
}

// Decodes one captured series into `data`. Sealed segments are served
// from the rollup tier with `tier_step` when every window-overlapping
// bucket lies entirely inside the window (tier_step 0: always raw).
Status DecodeSnapshot(const SeriesSnapshot& snap, const TimeRange& window,
                      bool bounded, int64_t tier_step, RollupAggregate agg,
                      SeriesData* data, ScanCounters* counters) {
  for (const auto& seg : snap.segments) {
    // Time pruning: a segment entirely outside the window decodes nothing.
    if (bounded && (seg->max_timestamp() < window.start ||
                    seg->min_timestamp() >= window.end)) {
      continue;
    }
    const RollupTier* tier =
        tier_step > 0 ? seg->TierFor(tier_step) : nullptr;
    bool rollup_ok = tier != nullptr;
    std::vector<const RollupPoint*> rows;
    if (tier != nullptr) {
      rows.reserve(tier->points.size());
      for (const RollupPoint& p : tier->points) {
        if (bounded) {
          if (p.last_ts < window.start || p.first_ts >= window.end) {
            continue;  // bucket entirely outside
          }
          if (p.first_ts < window.start || p.last_ts >= window.end) {
            // The window cuts this bucket: its aggregate mixes in-window
            // and out-of-window points, so the tier is inexact here.
            // Fall back to the raw block for the whole segment.
            rollup_ok = false;
            break;
          }
        }
        rows.push_back(&p);
      }
    }
    if (rollup_ok) {
      for (const RollupPoint* p : rows) {
        data->timestamps.push_back(p->bucket);
        data->values.push_back(RollupValue(*p, agg));
        counters->rollup_points_skipped += p->count;
      }
      counters->rollup_points_returned += rows.size();
      if (tier_step == kSecondsPerMinute) {
        counters->minute_tier_points += rows.size();
      } else {
        counters->hour_tier_points += rows.size();
      }
      ++counters->segments_rollup_served;
    } else {
      const size_t before = data->values.size();
      EXPLAINIT_ASSIGN_OR_RETURN(
          size_t decoded,
          seg->Decode(bounded ? &window : nullptr, &data->timestamps,
                      &data->values));
      counters->points_decoded += decoded;
      counters->segment_points_decoded += decoded;
      if (tier_step > 0) ++counters->segments_raw_fallback;
      if (agg == RollupAggregate::kCount) {
        // A count-routed scan returns point counts, not samples: each
        // raw-fallback point contributes a count of one.
        std::fill(data->values.begin() + before, data->values.end(), 1.0);
      }
    }
  }
  if (snap.head.num_points() > 0) {
    const size_t before = data->values.size();
    EXPLAINIT_ASSIGN_OR_RETURN(
        size_t decoded,
        snap.head.Decode(&data->timestamps, &data->values,
                         bounded ? &window : nullptr));
    counters->points_decoded += decoded;
    counters->head_points_decoded += decoded;
    if (agg == RollupAggregate::kCount) {
      std::fill(data->values.begin() + before, data->values.end(), 1.0);
    }
  }
  counters->points_returned += data->timestamps.size();
  return Status::OK();
}

}  // namespace

Result<std::vector<SeriesData>> SeriesStore::Scan(
    const ScanRequest& request) const {
  const TimeRange window = request.EffectiveRange();
  const ScanHints& hints = request.hints;
  // The start == end sentinel only means "unbounded" on a hint-free
  // request; a hinted intersection that degenerates to an empty window
  // must scan nothing, not everything.
  const bool bounded =
      hints.range.has_value() || request.range.end != request.range.start;
  const bool empty_window = bounded && window.start >= window.end;
  const int64_t tier_step = hints.rollup != RollupAggregate::kNone
                                ? EffectiveRollupTierStep(hints.min_step_seconds)
                                : 0;

  // Pass 1: match series metadata (immutable after creation — only the
  // map lock is needed, no stripe locks).
  std::vector<std::shared_ptr<SeriesEntry>> matched;
  if (!empty_window) {
    std::shared_lock<std::shared_mutex> lock(impl_->map_mutex);
    for (const auto& e : impl_->order) {
      if (!GlobMatch(request.metric_glob, e->meta.metric_name)) continue;
      if (hints.metric_names.has_value() &&
          !std::binary_search(hints.metric_names->begin(),
                              hints.metric_names->end(),
                              e->meta.metric_name)) {
        continue;
      }
      if (!e->meta.tags.Matches(request.tag_filter)) continue;
      if (!hints.tag_filter.empty() &&
          !e->meta.tags.Matches(hints.tag_filter)) {
        continue;
      }
      matched.push_back(e);
    }
  }

  // Pass 2: snapshot + decode, one morsel per series; large scans fan out
  // across the pool and the per-morsel results merge back in store order.
  // Each task holds the stripe lock only while copying the head block and
  // the segment pointers — decoding is entirely lock-free, so scans never
  // block writers (and vice versa).
  std::vector<SeriesData> slots(matched.size());
  std::vector<ScanCounters> counters(matched.size());
  std::vector<Status> statuses(matched.size(), Status::OK());
  auto decode_one = [&](size_t i) {
    const SeriesEntry& e = *matched[i];
    SeriesSnapshot snap;
    {
      std::lock_guard<std::mutex> lock(impl_->StripeFor(e));
      snap.segments = e.segments;
      snap.head = e.head.block();
    }
    slots[i].meta = e.meta;
    slots[i].tags_value = e.tags_value;
    Status s = DecodeSnapshot(snap, window, bounded, tier_step, hints.rollup,
                              &slots[i], &counters[i]);
    if (!s.ok()) statuses[i] = std::move(s);
  };
  if (matched.size() >= kParallelScanThreshold) {
    // Chunked fan-out over the shared pool: one task per worker-sized run
    // of series instead of one queue round-trip per series (large stores
    // match 100k+ series). The calling thread participates, so scans
    // issued from inside a pool task (a morsel-parallel operator) make
    // progress even when every worker is busy.
    exec::ParallelForChunks(*impl_->pool, matched.size(),
                            /*min_grain=*/16, [&](size_t begin, size_t end) {
                              for (size_t i = begin; i < end; ++i) {
                                decode_one(i);
                              }
                            });
  } else {
    for (size_t i = 0; i < matched.size(); ++i) decode_one(i);
  }

  std::vector<SeriesData> out;
  out.reserve(matched.size());
  ScanCounters total;
  for (size_t i = 0; i < matched.size(); ++i) {
    EXPLAINIT_RETURN_IF_ERROR(statuses[i]);
    total.Merge(counters[i]);
    if (!slots[i].timestamps.empty()) out.push_back(std::move(slots[i]));
  }

  {
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    ScanStats& st = impl_->scan_stats;
    ++st.scans;
    st.series_matched = matched.size();
    st.last_range = window;
    st.last_metric_glob = MetricConstraintText(request);
    st.Merge(total);
  }
  return out;
}

ScanStats SeriesStore::scan_stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  return impl_->scan_stats;
}

void SeriesStore::ResetScanStats() {
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  impl_->scan_stats = ScanStats{};
}

void InterpolateMissing(std::vector<double>& values) {
  const size_t n = values.size();
  // Forward pass records the distance to the previous valid value; the
  // backward pass picks whichever neighbour is nearer.
  std::vector<int64_t> prev_valid(n, -1);
  int64_t last = -1;
  for (size_t i = 0; i < n; ++i) {
    if (!std::isnan(values[i])) last = static_cast<int64_t>(i);
    prev_valid[i] = last;
  }
  int64_t next = -1;
  for (size_t ii = n; ii-- > 0;) {
    if (!std::isnan(values[ii])) {
      next = static_cast<int64_t>(ii);
      continue;
    }
    const int64_t p = prev_valid[ii];
    double fill = 0.0;
    if (p >= 0 && next >= 0) {
      const int64_t dp = static_cast<int64_t>(ii) - p;
      const int64_t dn = next - static_cast<int64_t>(ii);
      fill = dp <= dn ? values[p] : values[next];
    } else if (p >= 0) {
      fill = values[p];
    } else if (next >= 0) {
      fill = values[next];
    }
    values[ii] = fill;
  }
}

Result<table::Table> SeriesStore::ScanToTable(
    const ScanRequest& request) const {
  EXPLAINIT_ASSIGN_OR_RETURN(std::vector<SeriesData> raw, Scan(request));
  // Honour the projection hint: materialise only the standard columns the
  // query references (the planner always includes every referenced
  // column, so skipping the rest can never lose a lookup — it only saves
  // building per-row tag maps / name strings, which dominate the cost).
  // An empty projection, or one naming none of our columns, keeps all
  // four so "column not found" errors still surface naturally.
  const std::vector<std::string>& projection = request.hints.projection;
  auto wanted = [&projection](std::string_view name) {
    for (const std::string& p : projection) {
      if (EqualsIgnoreCase(p, name)) return true;
    }
    return false;
  };
  bool keep_ts = wanted("timestamp");
  bool keep_metric = wanted("metric_name");
  bool keep_tag = wanted("tag");
  bool keep_value = wanted("value");
  if (!keep_ts && !keep_metric && !keep_tag && !keep_value) {
    keep_ts = keep_metric = keep_tag = keep_value = true;
  }

  return SeriesTable(raw, ScanColumns{keep_ts, keep_metric, keep_tag,
                                      keep_value});
}

table::Table SeriesTable(const std::vector<SeriesData>& series,
                         const ScanColumns& columns) {
  // Point-less series contribute no rows, and no dictionary entry.
  size_t total = 0;
  size_t with_points = 0;
  for (const SeriesData& s : series) {
    total += s.timestamps.size();
    if (!s.timestamps.empty()) ++with_points;
  }
  auto names = std::make_shared<table::Dictionary>();
  auto tags = std::make_shared<table::Dictionary>();
  auto codes = std::make_shared<table::CodeArray>();
  std::vector<table::Value> ts_cells;
  std::vector<table::Value> value_cells;
  if (columns.metric_name) names->reserve(with_points);
  if (columns.tag) tags->reserve(with_points);
  if (columns.metric_name || columns.tag) codes->reserve(total);
  if (columns.timestamp) ts_cells.reserve(total);
  if (columns.value) value_cells.reserve(total);
  uint32_t code = 0;
  for (const SeriesData& s : series) {
    const size_t n = s.timestamps.size();
    if (n == 0) continue;
    if (columns.metric_name) {
      names->push_back(table::Value::String(s.meta.metric_name));
    }
    if (columns.tag) tags->push_back(s.tags_value);
    if (columns.metric_name || columns.tag) codes->insert(codes->end(), n, code);
    ++code;
    if (columns.timestamp) {
      for (size_t i = 0; i < n; ++i) {
        ts_cells.push_back(table::Value::Timestamp(s.timestamps[i]));
      }
    }
    if (columns.value) {
      for (size_t i = 0; i < n; ++i) {
        value_cells.push_back(table::Value::Double(s.values[i]));
      }
    }
  }

  table::Schema schema;
  std::vector<table::Column> cols;
  if (columns.timestamp) {
    schema.AddField({"timestamp", table::DataType::kTimestamp});
    cols.emplace_back(std::move(ts_cells));
  }
  if (columns.metric_name) {
    schema.AddField({"metric_name", table::DataType::kString});
    cols.emplace_back(std::move(names), codes, 0, total);
  }
  if (columns.tag) {
    schema.AddField({"tag", table::DataType::kMap});
    cols.emplace_back(std::move(tags), codes, 0, total);
  }
  if (columns.value) {
    schema.AddField({"value", table::DataType::kDouble});
    cols.emplace_back(std::move(value_cells));
  }
  // Every column holds `total` rows by construction.
  return table::Table::FromColumns(std::move(schema), std::move(cols))
      .value();
}

namespace {
void PutU64(std::vector<uint8_t>* out, uint64_t n) {
  const size_t at = out->size();
  out->resize(at + sizeof(n));
  std::memcpy(out->data() + at, &n, sizeof(n));
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU64(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

// Readers compare lengths against the bytes remaining (*offset never
// exceeds data.size()), so a corrupt length cannot wrap the bound.
bool GetU64(const std::vector<uint8_t>& data, size_t* offset, uint64_t* n) {
  if (data.size() - *offset < sizeof(*n)) return false;
  std::memcpy(n, data.data() + *offset, sizeof(*n));
  *offset += sizeof(*n);
  return true;
}

bool GetString(const std::vector<uint8_t>& data, size_t* offset,
               std::string* s) {
  uint64_t n = 0;
  if (!GetU64(data, offset, &n) || n > data.size() - *offset) return false;
  s->assign(reinterpret_cast<const char*>(data.data() + *offset), n);
  *offset += n;
  return true;
}

/// The seed (v1) format: one block per series, no tiers. Still loadable.
constexpr uint32_t kSnapshotMagic = 0x45585453;  // "EXTS"
/// The tiered (v2) format: per series, every sealed segment block then
/// the head block (encoder state included). Tags travel as one
/// TagSet::Encode string, which is ambiguous when a key or value holds
/// ',' or '='. Still loadable.
constexpr uint32_t kSnapshotMagicV2 = 0x32545845;  // "EXT2"
/// The current (v3) format: v2 with lossless tags — a u64 pair count,
/// then each key and value as a length-prefixed string.
constexpr uint32_t kSnapshotMagicV3 = 0x33545845;  // "EXT3"

Result<TagSet> ParseTagEncoding(const std::string& tag_encoding) {
  std::map<std::string, std::string> tags;
  if (!tag_encoding.empty()) {
    for (const std::string& kv : StrSplit(tag_encoding, ',')) {
      const auto parts = StrSplit(kv, '=');
      if (parts.size() != 2) {
        return Status::ParseError("bad tag encoding: " + kv);
      }
      tags[parts[0]] = parts[1];
    }
  }
  return TagSet(std::move(tags));
}

Result<TagSet> GetTags(const std::vector<uint8_t>& data, size_t* offset) {
  uint64_t count = 0;
  if (!GetU64(data, offset, &count)) {
    return Status::ParseError("truncated tag count");
  }
  std::map<std::string, std::string> tags;
  for (uint64_t i = 0; i < count; ++i) {
    std::string key, value;
    if (!GetString(data, offset, &key) || !GetString(data, offset, &value)) {
      return Status::ParseError("truncated tag pair");
    }
    tags[std::move(key)] = std::move(value);
  }
  return TagSet(std::move(tags));
}
}  // namespace

Status SeriesStore::SaveSnapshot(const std::string& path) const {
  std::vector<uint8_t> buf;
  auto entries = impl_->SnapshotOrder();
  buf.resize(sizeof(kSnapshotMagicV3));
  std::memcpy(buf.data(), &kSnapshotMagicV3, sizeof(kSnapshotMagicV3));
  PutU64(&buf, entries.size());
  for (const auto& e : entries) {
    PutString(&buf, e->meta.metric_name);
    PutU64(&buf, e->meta.tags.entries().size());
    for (const auto& [key, value] : e->meta.tags.entries()) {
      PutString(&buf, key);
      PutString(&buf, value);
    }
    // Capture the tier state under the stripe lock, then serialize
    // outside it (segment payloads are immutable; the head is a copy).
    std::vector<std::shared_ptr<const SealedSegment>> segments;
    CompressedBlock head;
    {
      std::lock_guard<std::mutex> lock(impl_->StripeFor(*e));
      segments = e->segments;
      head = e->head.block();
    }
    PutU64(&buf, segments.size());
    for (const auto& seg : segments) seg->block().Serialize(&buf);
    head.Serialize(&buf);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  if (written != buf.size()) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Status SeriesStore::LoadSnapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open for reading: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> buf(static_cast<size_t>(size));
  const size_t read = std::fread(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  if (read != buf.size()) {
    return Status::IOError("short read from " + path);
  }
  size_t offset = 0;
  uint32_t magic = 0;
  uint64_t count = 0;
  if (buf.size() < sizeof(magic) + sizeof(count)) {
    return Status::ParseError("snapshot too short");
  }
  std::memcpy(&magic, buf.data(), sizeof(magic));
  offset += sizeof(magic);
  if (magic != kSnapshotMagic && magic != kSnapshotMagicV2 &&
      magic != kSnapshotMagicV3) {
    return Status::ParseError("bad snapshot magic");
  }
  const bool tiered = magic != kSnapshotMagic;
  std::memcpy(&count, buf.data() + offset, sizeof(count));
  offset += sizeof(count);

  decltype(impl_->by_key) by_key;
  std::vector<std::shared_ptr<SeriesEntry>> order;
  size_t points = 0;
  // The retention high-water mark: the newest loaded point.
  int64_t max_timestamp = std::numeric_limits<int64_t>::min();
  for (uint64_t i = 0; i < count; ++i) {
    auto e = std::make_shared<SeriesEntry>();
    if (!GetString(buf, &offset, &e->meta.metric_name)) {
      return Status::ParseError("truncated series header");
    }
    if (magic == kSnapshotMagicV3) {
      EXPLAINIT_ASSIGN_OR_RETURN(e->meta.tags, GetTags(buf, &offset));
    } else {
      std::string tag_encoding;
      if (!GetString(buf, &offset, &tag_encoding)) {
        return Status::ParseError("truncated series header");
      }
      EXPLAINIT_ASSIGN_OR_RETURN(e->meta.tags,
                                 ParseTagEncoding(tag_encoding));
    }
    e->tags_value = MakeTagsValue(e->meta.tags);
    if (tiered) {
      uint64_t num_segments = 0;
      if (!GetU64(buf, &offset, &num_segments)) {
        return Status::ParseError("truncated segment count");
      }
      for (uint64_t s = 0; s < num_segments; ++s) {
        EXPLAINIT_ASSIGN_OR_RETURN(
            CompressedBlock block, CompressedBlock::Deserialize(buf, &offset));
        // Re-sealing rebuilds the rollup tiers from the raw block —
        // rollups are derived data and stay out of the snapshot format.
        EXPLAINIT_ASSIGN_OR_RETURN(auto segment,
                                   SealedSegment::Seal(std::move(block)));
        points += segment->num_points();
        if (segment->num_points() > 0) {
          max_timestamp = std::max(max_timestamp, segment->max_timestamp());
        }
        e->segments.push_back(std::move(segment));
      }
      EXPLAINIT_ASSIGN_OR_RETURN(CompressedBlock head,
                                 CompressedBlock::Deserialize(buf, &offset));
      points += head.num_points();
      if (head.num_points() > 0) {
        max_timestamp = std::max(max_timestamp, head.last_timestamp());
        e->head.Restore(std::move(head));
      }
    } else {
      // Seed format: the whole series is one block — load it as the head;
      // it reseals under the current thresholds as writes resume.
      EXPLAINIT_ASSIGN_OR_RETURN(CompressedBlock block,
                                 CompressedBlock::Deserialize(buf, &offset));
      points += block.num_points();
      if (block.num_points() > 0) {
        max_timestamp = std::max(max_timestamp, block.last_timestamp());
        e->head.Restore(std::move(block));
      }
    }
    const SeriesIdentity id{&e->meta.metric_name, &e->meta.tags};
    if (!by_key.emplace(id, e).second) {
      // Two entries for one series would both count and scan while
      // writes reached only one of them.
      return Status::ParseError("snapshot repeats series " +
                                e->meta.ToString());
    }
    e->stripe = SeriesIdentityHash{}(id) % Impl::kStripeCount;
    order.push_back(std::move(e));
  }
  std::unique_lock<std::shared_mutex> lock(impl_->map_mutex);
  impl_->by_key = std::move(by_key);
  impl_->order = std::move(order);
  impl_->total_points.store(points, std::memory_order_relaxed);
  impl_->max_timestamp.store(max_timestamp, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace explainit::tsdb
