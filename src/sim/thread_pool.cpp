#include "hermes/sim/thread_pool.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

namespace hermes::sim {

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("HERMES_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
    // 0, negative, empty or non-numeric: treated as unset, fall through.
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = resolve_threads(threads);
  workers_.reserve(n - 1);
  for (unsigned t = 1; t < n; ++t) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock{mu_};
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::drain() const {
  while (!failed_.load(std::memory_order_relaxed)) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_size_) return;
    try {
      (*job_)(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock{mu_};
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop() const {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock{mu_};
  for (;;) {
    cv_work_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    lock.unlock();
    drain();
    lock.lock();
    if (--busy_workers_ == 0) cv_done_.notify_one();
  }
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  std::unique_lock<std::mutex> lock{mu_};
  job_ = &fn;
  job_size_ = n;
  next_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  busy_workers_ = workers_.size();
  ++generation_;
  cv_work_.notify_all();
  lock.unlock();
  drain();
  lock.lock();
  cv_done_.wait(lock, [&] { return busy_workers_ == 0; });
  job_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

}  // namespace hermes::sim
