// Fixed-size thread pool with a blocking task queue, TaskGroup scoped
// waiting, and ParallelFor.
//
// The pool is the substrate for the parallel exact-search engine (see
// DESIGN.md §8): brute-force frontier expansion, the analysis budget
// sweeps, the explorer's budget grid and the service's batches all fan
// work out here. Three properties the search engine relies on:
//
//   * Exceptions thrown inside a task propagate to the waiter. The first
//     exception raised by a task in a TaskGroup (or, for bare Submit, in
//     the pool) is rethrown by the corresponding Wait(); later ones are
//     dropped. Nothing ever reaches std::terminate.
//   * Tasks may submit tasks — including waiting on them. TaskGroup::Wait
//     lends the calling thread to the pool (it pops and runs queued tasks
//     while its own are outstanding), so nested fan-out cannot deadlock
//     even on a single-thread pool.
//   * The destructor drains the queue (every submitted task runs) and then
//     joins the workers; exceptions surfacing during the drain are
//     discarded because a destructor has no waiter to hand them to.
//
// ThreadPool::Wait() waits for the WHOLE pool to go idle and is intended
// for top-level owners only; from inside a task, wait on a TaskGroup
// instead (the pool-wide in-flight count includes the caller's own task,
// which can never reach zero from within).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace wrbpg {

class ThreadPool {
 public:
  // num_threads == 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue a task. Safe to call from worker threads.
  void Submit(std::function<void()> task);

  // Block until every submitted task (including tasks submitted by tasks)
  // has finished executing, helping to run queued tasks meanwhile.
  // Rethrows the first exception a bare-Submitted task raised since the
  // last Wait(). Must not be called from inside a task (use TaskGroup).
  void Wait();

  std::size_t size() const noexcept { return workers_.size(); }

 private:
  friend class TaskGroup;

  // Pops one queued task and runs it on the calling thread; false when the
  // queue is empty. Used by Wait() and TaskGroup::Wait() to lend the
  // waiting thread to the pool.
  bool TryRunOneTask();
  void RunTask(std::function<void()>& task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: work or shutdown
  std::condition_variable idle_cv_;   // signals Wait(): all drained
  std::size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;    // from bare-Submitted tasks
};

// Tracks a batch of tasks submitted to a pool so the submitter can wait on
// exactly that batch. Wait() is safe from inside another pool task: while
// the group's tasks are outstanding it executes queued pool work on the
// calling thread instead of blocking, so a 1-thread pool still makes
// progress through arbitrarily nested groups.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Submit(std::function<void()> task);

  // Blocks until every task submitted to THIS group has finished, then
  // rethrows the first exception any of them raised (if any).
  void Wait();

 private:
  struct State {
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t pending = 0;
    std::exception_ptr first_error;
  };

  ThreadPool& pool_;
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

// Runs fn(i) for i in [begin, end) across the pool, blocking until
// complete. Iterations are chunked to limit queue overhead. Rethrows the
// first exception fn raised. Safe to call from inside a pool task.
void ParallelFor(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                 const std::function<void(std::int64_t)>& fn);

// Process-wide default for search parallelism, consumed wherever an
// options struct leaves its `threads` field at 0. Starts from the
// WRBPG_THREADS environment variable when set (any integer >= 1), else 1 —
// library callers get today's sequential behavior unless they, the CLI
// (--threads), or the environment opt in. Setting 0 selects
// std::thread::hardware_concurrency().
std::size_t DefaultSearchThreads();
void SetDefaultSearchThreads(std::size_t n);

// Maps an options-struct `threads` request to an actual count:
// 0 -> DefaultSearchThreads(), otherwise the request itself (min 1).
std::size_t ResolveThreadCount(std::size_t requested);

}  // namespace wrbpg
