// Process-wide worker pool with per-caller task groups. Every component
// (the SQL executor's morsels, the store's scans and maintenance, ranking
// fan-out) borrows one shared, affinity-aware pool instead of growing a
// private one, so N concurrent sessions never oversubscribe the box:
//
//   - WorkerPool::Global() is the process-wide instance every component
//     defaults to; constructors take an optional WorkerPool* injection
//     point so tests can isolate. WorkerPool::constructions() counts
//     pool creations, letting tests assert that serving 64 sessions
//     creates no per-component pools.
//   - TaskGroup scopes a batch of submitted tasks: Wait() blocks only on
//     *this group's* tasks and rethrows only this group's first
//     exception, so concurrent sessions sharing the pool never observe
//     each other's work or errors.
//   - A Wait()ing thread HELPS: it runs its own group's queued tasks
//     inline instead of blocking on a saturated pool. Combined with
//     caller participation in ParallelFor/ParallelForChunks (the calling
//     thread pulls work from the same atomic cursor as the workers),
//     nested fan-out — a store scan inside a morsel task inside a
//     session — can never deadlock: a waiter only ever blocks on tasks
//     that are actually executing.
//   - TaskGroup(pool, /*max_concurrency=*/1) serialises a group's tasks
//     (the store's background maintenance ordering) without dedicating a
//     thread to it.
//   - Tasks carry a tag ("sql", "scan", "rank", ...); the pool keeps
//     per-tag completion counters for observability.
//
// Sizing is affinity-aware: the default thread count is the number of
// CPUs the process is actually allowed to run on (sched_getaffinity on
// Linux — container/cgroup masks respected), not hardware_concurrency().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace explainit::exec {

class TaskGroup;

struct WorkerPoolOptions {
  /// Worker count; 0 = one per schedulable CPU.
  size_t num_threads = 0;
};

class WorkerPool {
 public:
  using Options = WorkerPoolOptions;

  explicit WorkerPool(Options options = Options());
  explicit WorkerPool(size_t num_threads)
      : WorkerPool(Options{num_threads}) {}
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Tasks completed per tag since construction.
  std::map<std::string, uint64_t> TagCounts() const;

  /// The process-wide pool. Created on first use, sized to the
  /// schedulable CPUs, never destroyed (it must outlive every static
  /// whose destructor might still submit work).
  static WorkerPool& Global();

  /// Total WorkerPool constructions in this process. Integration tests
  /// pin this across a serving run to prove no component grew a
  /// private pool.
  static size_t constructions();

 private:
  friend class TaskGroup;

  struct Entry {
    TaskGroup* group;
    std::function<void()> fn;
    const char* tag;
  };

  /// True when the entry's group has concurrency budget left.
  bool RunnableLocked(const Entry& e) const;
  /// Pops the first runnable entry (restricted to `only_group` when
  /// non-null). Returns false when none qualifies.
  bool PopRunnableLocked(TaskGroup* only_group, Entry* out);
  /// Runs one entry. `lock` must be held on entry and is held again on
  /// return; the task itself executes unlocked.
  void Execute(Entry entry, std::unique_lock<std::mutex>& lock);
  void WorkerLoop(size_t index);

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Entry> queue_;
  std::map<std::string, uint64_t> tag_counts_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// A batch of related tasks on a shared pool. Waiting and error capture
/// are group-local; the destructor blocks until every task of the group
/// has finished (discarding errors), so tasks may capture the caller's
/// stack by reference.
class TaskGroup {
 public:
  /// max_concurrency bounds how many of this group's tasks run at once;
  /// 0 = pool-wide. 1 gives strict FIFO serialisation.
  explicit TaskGroup(WorkerPool* pool, size_t max_concurrency = 0);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Submit(std::function<void()> fn, const char* tag = "task");

  /// Blocks until every task submitted to this group has finished,
  /// helping to run queued (not yet started) group tasks inline. If any
  /// task threw since the last Wait(), rethrows the first captured
  /// exception; the group stays usable.
  void Wait();

  /// Tasks submitted but not yet finished.
  size_t pending() const;

 private:
  friend class WorkerPool;

  void WaitImpl(bool rethrow);

  WorkerPool* pool_;
  const size_t max_concurrency_;
  size_t pending_ = 0;  // queued + running   (guarded by pool_->mutex_)
  size_t active_ = 0;   // running right now  (guarded by pool_->mutex_)
  std::exception_ptr first_error_;  //         (guarded by pool_->mutex_)
  std::condition_variable done_;    // waits on pool_->mutex_
};

/// Runs fn(i) for i in [0, n), blocking until done. The calling thread
/// participates (it pulls indices from the same cursor as the workers),
/// so progress is guaranteed even on a saturated pool and nesting cannot
/// deadlock. max_workers (0 = pool size) caps the fan-out.
void ParallelFor(WorkerPool& pool, size_t n,
                 const std::function<void(size_t)>& fn,
                 size_t max_workers = 0);

/// Runs fn(begin, end) over contiguous chunks covering [0, n), blocking
/// until done. Chunk boundaries depend only on (n, min_grain,
/// pool.num_threads()) — never on scheduling — so sharded output stays
/// deterministic. One inline call when n <= min_grain.
void ParallelForChunks(WorkerPool& pool, size_t n, size_t min_grain,
                       const std::function<void(size_t, size_t)>& fn);

}  // namespace explainit::exec
