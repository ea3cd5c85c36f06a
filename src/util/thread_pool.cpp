#include "util/thread_pool.hpp"

#include <algorithm>

namespace gpclust::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    queue_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // exceptions are captured in the packaged_task's future
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, std::max<std::size_t>(1, size()));
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    if (lo >= hi) break;
    futures.push_back(submit([&fn, lo, hi] { fn(lo, hi); }));
  }
  // Wait for every chunk even when one throws: the queued tasks reference
  // `fn` (caller stack), so returning before they all finish would let a
  // worker run a task whose captures are already destroyed. The first
  // exception is rethrown after the full drain.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& default_thread_pool() {
  static ThreadPool pool;
  return pool;
}

Workers::Workers(std::size_t num_threads) {
  if (num_threads == 0) {
    pool_ = &default_thread_pool();
  } else if (num_threads > 1) {
    owned_ = std::make_unique<ThreadPool>(num_threads);
    pool_ = owned_.get();
  }
}

void Workers::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  if (pool_ != nullptr) {
    pool_->parallel_for(begin, end, fn);
  } else if (begin < end) {
    fn(begin, end);
  }
}

}  // namespace gpclust::util
