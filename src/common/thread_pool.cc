#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace uguide {

namespace {

// The pool whose worker the calling thread is, or null.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  UGUIDE_CHECK(num_threads >= 0);
  if (num_threads == kAuto) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  num_threads_ = std::max(num_threads, 1);
  // The caller is strand #0; spawn the rest. num_threads_ == 1 spawns
  // nothing and every entry point degrades to an inline call.
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerMain() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: ParallelFor joins depend on
      // every submitted task eventually running.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      // A throwing task must not take the worker (and the process) down.
      // Keep the first exception for TakeSubmitError; ParallelFor's helper
      // tasks catch their own exceptions and never reach this.
      std::lock_guard<std::mutex> lock(mu_);
      if (!submit_error_) submit_error_ = std::current_exception();
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  UGUIDE_CHECK(task != nullptr);
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  ready_.notify_one();
}

std::exception_ptr ThreadPool::TakeSubmitError() {
  std::lock_guard<std::mutex> lock(mu_);
  std::exception_ptr error = submit_error_;
  submit_error_ = nullptr;
  return error;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || current_pool == this) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Fork/join state lives on the caller's stack: the join below guarantees
  // every helper task has finished (and released `mu`) before it goes out
  // of scope.
  struct ForState {
    std::atomic<size_t> next{0};
    size_t n = 0;
    size_t chunk = 1;
    const std::function<void(size_t)>* fn = nullptr;
    std::mutex mu;
    std::condition_variable done;
    int pending = 0;
    /// Set when any strand throws: remaining strands stop claiming chunks.
    std::atomic<bool> cancelled{false};
    /// First exception thrown by any strand (guarded by mu).
    std::exception_ptr error;
  };
  ForState state;
  state.n = n;
  state.fn = &fn;
  const size_t strands = std::min(workers_.size() + 1, n);
  // Chunked dynamic claiming: big enough to amortize the atomic, small
  // enough to balance skewed per-iteration cost (partition products vary
  // wildly in size).
  state.chunk = std::max<size_t>(1, n / (strands * 8));
  const int helpers = static_cast<int>(strands) - 1;
  state.pending = helpers;

  auto drain = [](ForState* s) {
    size_t start;
    // Cancellation is polled per chunk (the claim loop only), keeping the
    // inner iteration loop free of extra loads.
    while (!s->cancelled.load(std::memory_order_relaxed) &&
           (start = s->next.fetch_add(s->chunk, std::memory_order_relaxed)) <
               s->n) {
      const size_t end = std::min(s->n, start + s->chunk);
      for (size_t i = start; i < end; ++i) (*s->fn)(i);
    }
  };
  // A strand that throws records the first exception, cancels the claim
  // loop, and still reports completion — the join below must always see
  // every strand finish, or `state` would be destroyed under a live task.
  auto capture = [](ForState* s) {
    s->cancelled.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(s->mu);
    if (!s->error) s->error = std::current_exception();
  };
  for (int h = 0; h < helpers; ++h) {
    Submit([&state, drain, capture] {
      try {
        drain(&state);
      } catch (...) {
        capture(&state);
      }
      // Notify under the lock: the caller may only destroy `state` after
      // this task released `mu`, which its join's wait() re-acquisition
      // enforces.
      std::lock_guard<std::mutex> lock(state.mu);
      if (--state.pending == 0) state.done.notify_one();
    });
  }
  try {
    drain(&state);
  } catch (...) {
    capture(&state);
  }
  std::unique_lock<std::mutex> lock(state.mu);
  state.done.wait(lock, [&state] { return state.pending == 0; });
  const std::exception_ptr error = state.error;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace uguide
