#ifndef PRKB_COMMON_THREAD_POOL_H_
#define PRKB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace prkb {

/// Small fixed-size worker pool for data-parallel scan work. Threads are
/// started once and reused; the intended consumers are batched QPF scans,
/// where each task issues one EvalMany round trip and the pool keeps several
/// round trips in flight concurrently.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return threads_.size(); }

  /// Enqueues `fn` for execution on some worker.
  void Submit(std::function<void()> fn);

  /// Runs fn(0) … fn(n-1) across the workers *and* the calling thread,
  /// returning once all n invocations finished. `fn` must be safe to call
  /// concurrently. At most `max_concurrency` threads (including the caller)
  /// take part. Serial fallback when the pool is empty or n == 1.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   size_t max_concurrency = static_cast<size_t>(-1));

  /// Process-wide pool, sized to the hardware (capped), created on first
  /// use. Scan code paths share it instead of spawning threads per query.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace prkb

#endif  // PRKB_COMMON_THREAD_POOL_H_
