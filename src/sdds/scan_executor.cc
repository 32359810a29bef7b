#include "sdds/scan_executor.h"

#include "util/logging.h"

namespace essdds::sdds {

namespace {

/// Aborts if the task's record snapshot was mutated after enqueue. Buckets
/// resolve their queued tasks before mutating the record map, so a firing
/// here means a mutation path missed its AboutToMutateRecords() call.
void CheckSnapshotLive(const ScanTask& task) {
  if (task.live_generation == nullptr) return;
  ESSDDS_CHECK(*task.live_generation == task.enqueue_generation)
      << "scan task for bucket " << task.bucket
      << " evaluated over a mutated record map (enqueue generation "
      << task.enqueue_generation << ", live " << *task.live_generation << ")";
}

}  // namespace

void ExecuteScanTask(ScanTask& task) {
  if (task.evaluated) return;
  CheckSnapshotLive(task);
  std::unique_ptr<ScanFilter::Prepared> local;
  const ScanFilter::Prepared* prepared = task.shared_prepared;
  if (!task.has_shared_prepared) {
    local = task.filter->Prepare(task.arg);
    prepared = local.get();
  }
  task.evaluated = true;
  if (prepared == nullptr) return;  // malformed argument: empty reply
  prepared->MatchColumns(task.columns, &task.reply.records);
}

ScanWorkerPool::ScanWorkerPool(size_t threads, obs::MetricRegistry* metrics)
    : threads_(threads) {
  if (metrics != nullptr) {
    batch_tasks_hist_ = &metrics->histogram("scan.batch_tasks");
  }
}

void ScanWorkerPool::Run(std::vector<ScanTask>& tasks) {
  size_t pending = 0;
  for (const ScanTask& task : tasks) {
    if (!task.evaluated) ++pending;
  }
  if (batch_tasks_hist_ != nullptr) batch_tasks_hist_->Record(pending);
#if ESSDDS_THREADS
  if (threads_ > 1 && pending > 1) {
    RunBatch(tasks);
    return;
  }
#endif
  // Serial pool, a single pending task, or thread support compiled out:
  // the plain loop on the caller, no worker ever starts.
  for (ScanTask& task : tasks) ExecuteScanTask(task);
}

#if ESSDDS_THREADS

ScanWorkerPool::~ScanWorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

size_t ScanWorkerPool::started_workers() const { return workers_.size(); }

void ScanWorkerPool::StartWorkers() {
  if (!workers_.empty()) return;
  workers_.reserve(threads_);
  for (size_t w = 0; w < threads_; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ScanWorkerPool::DrainTasks(BatchState& state) {
  // Lock-free claims. A ticket < total implies the batch is still in
  // flight (its caller cannot leave RunBatch before `done` reaches total),
  // so the task array behind it is alive; an exhausted ticket touches
  // nothing but the batch-local atomics. Already-evaluated tasks (resolved
  // ahead of a mutation) are no-ops in ExecuteScanTask.
  for (size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
       i < state.total;
       i = state.next.fetch_add(1, std::memory_order_relaxed)) {
    ExecuteScanTask(state.tasks[i]);
    if (state.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state.total) {
      // Empty critical section: a waiter that saw `done` short is either
      // still holding mu_ (we serialize behind it) or already sleeping
      // (our notify wakes it) — no lost wakeup.
      { std::lock_guard<std::mutex> lock(mu_); }
      done_cv_.notify_all();
    }
  }
}

void ScanWorkerPool::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || (batch_ != nullptr && batch_seq_ != seen);
    });
    if (shutdown_) return;
    seen = batch_seq_;
    // Shared ownership of the claim state: however late this worker runs,
    // it drains only this batch's tickets (see BatchState).
    std::shared_ptr<BatchState> state = batch_;
    lock.unlock();
    DrainTasks(*state);
    lock.lock();
  }
}

void ScanWorkerPool::RunBatch(std::vector<ScanTask>& tasks) {
  StartWorkers();
  auto state = std::make_shared<BatchState>();
  state->tasks = tasks.data();
  state->total = tasks.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = state;
    ++batch_seq_;
  }
  work_cv_.notify_all();
  // The caller evaluates too: it claims tasks alongside the workers
  // rather than sleeping while they drain the queue — a small batch often
  // completes entirely on this thread before a worker even wakes.
  DrainTasks(*state);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->total;
  });
  batch_.reset();
}

#else  // !ESSDDS_THREADS

ScanWorkerPool::~ScanWorkerPool() = default;

size_t ScanWorkerPool::started_workers() const { return 0; }

#endif  // ESSDDS_THREADS

}  // namespace essdds::sdds
