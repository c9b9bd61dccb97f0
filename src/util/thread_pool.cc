#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>

namespace lccs {
namespace util {

namespace {

// Set while a thread is executing a pool task (worker or helping caller).
// Nested ParallelRange calls from such a thread run inline instead of
// re-entering the pool, so nesting can never deadlock.
thread_local bool tl_in_pool_task = false;

struct ScopedInPoolTask {
  bool previous;
  ScopedInPoolTask() : previous(tl_in_pool_task) { tl_in_pool_task = true; }
  ~ScopedInPoolTask() { tl_in_pool_task = previous; }
};

size_t DefaultWorkerCount() {
  const char* env = std::getenv("LCCS_POOL_WORKERS");
  if (env != nullptr && *env != '\0') {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

struct ThreadPool::Worker {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> tasks;
};

ThreadPool& ThreadPool::Instance() {
  static ThreadPool pool(DefaultWorkerCount());
  return pool;
}

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->cv.notify_all();
  }
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::PushTask(std::function<void()> task) {
  const size_t w =
      next_submit_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  Worker& worker = *workers_[w];
  size_t backlog;
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    worker.tasks.push_back(std::move(task));
    backlog = worker.tasks.size();
  }
  worker.cv.notify_one();
  // The target already had work queued, so it may be busy for a while —
  // poke a peer so an idle worker rescans for steals now instead of at its
  // next backoff timeout.
  if (backlog > 1 && workers_.size() > 1) {
    workers_[(w + 1) % workers_.size()]->cv.notify_one();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  PushTask(std::move(task));
}

bool ThreadPool::RunOneTask(size_t home_index) {
  std::function<void()> task;
  {
    Worker& home = *workers_[home_index];
    std::lock_guard<std::mutex> lock(home.mu);
    if (!home.tasks.empty()) {
      task = std::move(home.tasks.back());
      home.tasks.pop_back();
    }
  }
  if (!task) {
    for (size_t offset = 1; offset < workers_.size() && !task; ++offset) {
      Worker& victim = *workers_[(home_index + offset) % workers_.size()];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
      }
    }
  }
  if (!task) return false;
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t index) {
  Worker& self = *workers_[index];
  std::chrono::milliseconds idle_wait(1);
  while (!stop_.load(std::memory_order_acquire)) {
    if (RunOneTask(index)) {
      idle_wait = std::chrono::milliseconds(1);
      continue;
    }
    // Nothing runnable anywhere right now. Sleep on the own queue's cv;
    // the timeout doubles as a periodic steal re-scan. Deliberately not a
    // predicated wait: PushTask pokes a peer's cv when a deque backs up,
    // and any wakeup — own push, peer poke, spurious — should fall through
    // to a full rescan. Exponential backoff keeps a long-idle pool at ~16
    // wakeups/s per worker instead of spinning at the re-scan interval,
    // while a busy pool still discovers stealable work within a
    // millisecond.
    {
      std::unique_lock<std::mutex> lock(self.mu);
      if (self.tasks.empty() && !stop_.load(std::memory_order_acquire)) {
        self.cv.wait_for(lock, idle_wait);
      }
    }
    idle_wait = std::min(idle_wait * 2, std::chrono::milliseconds(64));
  }
}

void ThreadPool::ParallelRange(size_t n, size_t parallelism,
                               const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (parallelism == 0) parallelism = workers_.size() + 1;  // + the caller
  const size_t chunks = std::min(parallelism, n);
  if (chunks <= 1 || tl_in_pool_task) {
    fn(0, n);
    return;
  }

  // Chunks are claimed from a shared counter rather than bound to the task
  // that runs them. The caller claims chunks alongside the workers, so the
  // range finishes even when every worker is busy elsewhere (or the pool has
  // a single worker), and the caller runs nothing but its own range: a
  // caller that stole queued foreign work while waiting would add that
  // work's whole duration to its own latency. Balanced contiguous bounds:
  // chunk c covers [c*n/chunks, (c+1)*n/chunks), so sizes differ by at most
  // one — no empty tail ranges when n is barely above the chunk count.
  //
  // The pushed tasks share the state rather than borrowing the caller's
  // stack, because one may start after the caller has returned. It then
  // finds no chunk left and touches nothing else; `fn` is only called for a
  // claimed chunk, which the caller is still waiting on.
  struct State {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
    std::exception_ptr error;  // first one wins
  };
  const auto state = std::make_shared<State>();
  const std::function<void(size_t, size_t)>* body = &fn;
  // Chunk errors never escape into a worker loop: the error is parked in
  // the state and the chunk still counts as done, so the caller always sees
  // every chunk finish before it rethrows.
  auto run_chunks = [state, body, n, chunks] {
    for (;;) {
      const size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      std::exception_ptr error;
      try {
        ScopedInPoolTask guard;
        (*body)(c * n / chunks, (c + 1) * n / chunks);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(state->mu);
      if (error && !state->error) state->error = std::move(error);
      if (++state->done == chunks) state->cv.notify_all();
    }
  };
  for (size_t t = 1; t < chunks; ++t) PushTask(run_chunks);
  run_chunks();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done == chunks; });
  if (state->error) std::rethrow_exception(state->error);
}

void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn,
                 size_t num_threads) {
  if (n == 0) return;
  if (n == 1 || num_threads == 1) {
    fn(0, n);
    return;
  }
  ThreadPool::Instance().ParallelRange(n, num_threads, fn);
}

}  // namespace util
}  // namespace lccs
