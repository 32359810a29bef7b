#ifndef ESSDDS_SDDS_SCAN_EXECUTOR_H_
#define ESSDDS_SDDS_SCAN_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#if ESSDDS_THREADS
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#endif

#include "obs/metrics.h"
#include "sdds/lh_options.h"
#include "sdds/message.h"

namespace essdds::sdds {

/// One deferred bucket-scan evaluation: one whole bucket, presented as a
/// columnar slice. In parallel scan mode a bucket server answers a kScan
/// message by enqueueing this task instead of evaluating inline; the filter
/// work then runs off the messaging path so a worker pool can evaluate
/// buckets concurrently. The reply message is pre-filled with everything
/// except the hit records.
///
/// `columns` borrows the bucket's ColumnStore buffers. The bucket guards
/// the view: before any mutation of its records it asks the network to
/// resolve its queued tasks (Network::ResolveDeferredScans), so a task is
/// always evaluated against exactly the content the serial inline mode
/// would have seen at kScan delivery. `live_generation`/`enqueue_generation`
/// assert that contract: the bucket bumps its mutation generation on every
/// record change, and evaluation aborts if the snapshot went stale anyway.
struct ScanTask {
  uint64_t bucket = 0;
  ColumnSlice columns;
  const ScanFilter* filter = nullptr;
  Bytes arg;      // owned copy of the scan argument (workers never touch
                  // the originating message)
  Message reply;  // header pre-filled; `records` appended by the worker

  /// When `has_shared_prepared` is set, the drain already compiled the scan
  /// argument once for every bucket of this scan; the worker uses
  /// `shared_prepared` (nullptr = malformed argument, empty reply) instead
  /// of running Prepare() itself.
  const ScanFilter::Prepared* shared_prepared = nullptr;
  bool has_shared_prepared = false;

  /// Dangling-snapshot guard: the owning bucket's mutation counter, and its
  /// value when the task was enqueued. Evaluation CHECKs them equal.
  const uint64_t* live_generation = nullptr;
  uint64_t enqueue_generation = 0;

  /// Set once the task's hits are in `reply`; an evaluated task is skipped
  /// by every later execution pass (a bucket may resolve its tasks early,
  /// ahead of the batch drain, when a mutation is about to land).
  bool evaluated = false;
};

/// Evaluates one task inline on the calling thread: prepares the filter
/// from the task's argument (unless a shared Prepared is attached) and
/// fills task.reply.records with the hits of one MatchColumns call over the
/// whole slice, in ascending key order (deterministic regardless of
/// execution order). No-op when the task is already evaluated.
void ExecuteScanTask(ScanTask& task);

/// Long-lived fixed-size worker pool for scan evaluation. One instance is
/// owned by each Network and reused across every scan batch: workers block
/// on a condition variable between batches, so a scan pays queue
/// signalling instead of thread creation. The unit of work is one whole
/// task (bucket) — scans parallelise across buckets, never inside one.
/// Within a batch, task claims are lock-free and the calling thread
/// evaluates tasks alongside the workers, so small batches complete
/// without a single context switch. Each task fills only its own reply,
/// so serial and pooled execution produce byte-identical replies.
///
/// Lifecycle: construction is cheap and spawns nothing; workers start
/// lazily on the first batch that can use them and are joined by the
/// destructor (clean shutdown, no detached threads). With `threads` <= 1,
/// or in a build without thread support (ESSDDS_THREADS off), Run() is the
/// plain serial loop and no worker ever starts.
///
/// Thread safety: Run() is driven from the single-threaded messaging path;
/// concurrent Run() calls are not supported (nor possible — the simulator
/// has one driver thread). Worker threads touch only the batch handed to
/// them.
class ScanWorkerPool {
 public:
  /// Largest pool size the command-line front ends accept; one worker per
  /// core is the useful range, and anything near this is a typo.
  static constexpr size_t kMaxThreads = 256;

  /// `metrics`, when given, receives the pool's batch-shape histogram
  /// ("scan.batch_tasks" — how many buckets each drain batched); must
  /// outlive the pool. The instrument is resolved once here, on the driver
  /// thread, per the registry's thread contract.
  explicit ScanWorkerPool(size_t threads,
                          obs::MetricRegistry* metrics = nullptr);
  ~ScanWorkerPool();

  ScanWorkerPool(const ScanWorkerPool&) = delete;
  ScanWorkerPool& operator=(const ScanWorkerPool&) = delete;

  /// True when the build carries thread support; false means Run() is
  /// compiled down to the serial path and no worker can ever start.
  static constexpr bool threads_compiled_in() {
#if ESSDDS_THREADS
    return true;
#else
    return false;
#endif
  }

  /// Configured pool size (evaluators used for a parallel batch).
  size_t thread_count() const { return threads_; }

  /// Workers actually running: 0 until the first parallel batch, then
  /// thread_count() for the pool's lifetime.
  size_t started_workers() const;

  /// Evaluates every not-yet-evaluated task and returns once all replies
  /// are filled. Tasks run on the pool when it is parallel and more than
  /// one task is pending, serially on the caller otherwise; results are
  /// byte-identical either way.
  void Run(std::vector<ScanTask>& tasks);

 private:
#if ESSDDS_THREADS
  /// Per-batch claim state, heap-allocated and shared with every worker
  /// that wakes for the batch. Owning the claim tickets batch-locally (not
  /// as reusable pool members) makes stragglers harmless: a worker
  /// descheduled past its whole batch drains a state whose tickets are
  /// already exhausted — it can never claim tasks of a later batch, and
  /// the shared_ptr keeps the state alive however late it runs. The task
  /// array itself lives in the caller's vector; a participant dereferences
  /// it only for a ticket < total, which implies the batch (and so the
  /// vector) is still in flight.
  struct BatchState {
    ScanTask* tasks = nullptr;
    size_t total = 0;
    std::atomic<size_t> next{0};  // task claim ticket
    std::atomic<size_t> done{0};  // completed-task count
  };

  void StartWorkers();
  void WorkerLoop();
  void RunBatch(std::vector<ScanTask>& tasks);

  /// Claims and evaluates tasks until the batch's tickets run out; run by
  /// the workers AND by the batch caller (the caller evaluates alongside
  /// the pool instead of sleeping). Claims are lock-free — the mutex guards
  /// only batch publication and completion signalling, so the per-task
  /// path never sleeps on contention.
  void DrainTasks(BatchState& state);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers sleep here between batches
  std::condition_variable done_cv_;  // Run() waits here for batch completion
  std::vector<std::thread> workers_;
  // Current batch; pointer and sequence guarded by mu_. `batch_seq_`
  // distinguishes batches so a worker that finishes early never re-enters
  // the same one.
  std::shared_ptr<BatchState> batch_;
  uint64_t batch_seq_ = 0;
  bool shutdown_ = false;
#endif
  const size_t threads_;
  // Batch-shape histogram (null when no registry was attached). Recorded
  // by Run() on the driver thread.
  obs::Histogram* batch_tasks_hist_ = nullptr;
};

}  // namespace essdds::sdds

#endif  // ESSDDS_SDDS_SCAN_EXECUTOR_H_
