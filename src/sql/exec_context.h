// Shared execution context for one query pipeline: the degree of
// parallelism the executor was configured with, the worker pool that
// the parallel operators (Filter/Project/HashAggregate morsels,
// HashJoin's partitioned build/probe, SortLimit's sharded sort) and the
// executor's chunked result assembly fan out over, and the query's
// cancellation token.
//
// parallelism sets only the shard count: operators pick their algorithm
// from the statement, and at parallelism == 1 (or a null context/pool)
// run it as one shard inline (Filter and Project without LAG stream
// batch at a time instead). Shard boundaries depend only on (row count,
// parallelism), never on scheduling, so a given parallelism level is
// deterministic.
//
// The pool is *borrowed* — by default the process-wide
// exec::WorkerPool::Global(), shared with every other session, the
// store's scans and the ranking fan-out — never owned by the pipeline.
#pragma once

#include <cstddef>

#include "common/status.h"
#include "exec/cancel.h"
#include "exec/worker_pool.h"

namespace explainit::sql {

struct ExecContext {
  /// Degree of parallelism operators shard to. 1 = one shard, inline.
  size_t parallelism = 1;
  /// Shared worker pool for sharded execution (borrowed, typically
  /// exec::WorkerPool::Global()). Non-null whenever parallelism > 1.
  exec::WorkerPool* pool = nullptr;
  /// Cooperative cancellation/deadline for the current query; null when
  /// the caller imposes none. Checked at batch boundaries.
  const exec::CancelToken* cancel = nullptr;

  bool parallel() const { return parallelism > 1 && pool != nullptr; }

  /// OK while the current query may keep running.
  Status CheckCancel() const {
    return cancel != nullptr ? cancel->Check() : Status::OK();
  }
};

}  // namespace explainit::sql
