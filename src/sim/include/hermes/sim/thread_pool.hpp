#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hermes::sim {

/// Thread-count policy for every parallel layer (shard rounds, sweep
/// grids): `requested` if positive, else the HERMES_THREADS environment
/// variable if set to a positive integer, else
/// std::thread::hardware_concurrency() (at least 1). HERMES_THREADS=0,
/// empty, or non-numeric all mean "unset" and take the hardware fallback.
[[nodiscard]] unsigned resolve_threads(unsigned requested = 0);

/// The one thread pool: persistent workers running index-space jobs —
/// one job per sharded-executor round (an index per shard), or one per
/// sweep grid (an index per independent simulation cell). A job costs a
/// condvar wake-up, not a thread spawn. The calling thread claims indices
/// too, so a 1-thread pool has no workers and runs jobs inline.
///
/// Indices are claimed from an atomic cursor, so which thread runs an
/// index is unspecified; callers keep results index-addressed (map())
/// and never depend on execution order. One job at a time: do not call
/// for_each_index concurrently or from inside a job.
class ThreadPool {
 public:
  /// `threads == 0` resolves via resolve_threads().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned threads() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Invoke fn(i) for every i in [0, n) and block until done. If any call
  /// throws, no further indices are claimed and the first exception is
  /// rethrown once every thread has stopped.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  /// Map [0, n) through fn, returning results in index order regardless
  /// of execution order. R must be default-constructible and movable.
  template <typename R, typename Fn>
  [[nodiscard]] std::vector<R> map(std::size_t n, Fn&& fn) const {
    std::vector<R> out(n);
    for_each_index(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  void worker_loop() const;
  void drain() const;  ///< claim and run indices of the current job

  // The current job, published under mu_ with a generation bump. Running
  // a job does not change the pool's observable state, hence mutable.
  mutable std::mutex mu_;
  mutable std::condition_variable cv_work_;
  mutable std::condition_variable cv_done_;
  mutable std::uint64_t generation_ = 0;
  mutable const std::function<void(std::size_t)>* job_ = nullptr;
  mutable std::size_t job_size_ = 0;
  mutable std::atomic<std::size_t> next_{0};
  mutable std::atomic<bool> failed_{false};
  mutable std::exception_ptr error_;
  mutable std::size_t busy_workers_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;  ///< last: they use everything above
};

}  // namespace hermes::sim
