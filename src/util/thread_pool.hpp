#pragma once
// Fixed-size worker pool with a blocking task queue and a parallel_for
// helper. The simulated device executes its "kernels" on this pool; the
// homology-graph builder uses it for alignment fan-out.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gpclust::util {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the returned future observes completion/exceptions.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(begin..end) partitioned into roughly `size()` contiguous chunks,
  /// blocking until all chunks complete. fn receives [chunk_begin, chunk_end).
  /// Exceptions from chunks propagate (the first one observed is rethrown).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide default pool, sized to hardware concurrency.
ThreadPool& default_thread_pool();

/// The `num_threads` convention of the build-side stages
/// (align::HomologyGraphConfig::num_threads): 0 runs on
/// default_thread_pool(), 1 runs inline on the calling thread (fully
/// serial, no pool touched), n > 1 on a pool of n workers owned by this
/// handle for its lifetime.
class Workers {
 public:
  explicit Workers(std::size_t num_threads = 0);

  /// nullptr when serial.
  ThreadPool* pool() const { return pool_; }
  std::size_t size() const { return pool_ != nullptr ? pool_->size() : 1; }

  /// ThreadPool::parallel_for on the pool, or fn(begin, end) inline.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn)
      const;

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace gpclust::util
