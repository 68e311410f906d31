#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace atcd::util {

std::size_t worker_count(std::size_t requested, std::size_t n) {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t want = requested ? requested : hw;
  return std::max<std::size_t>(1, std::min({want, hw, n}));
}

void for_each_index(
    std::size_t n, std::size_t requested,
    const std::function<void(std::size_t worker, std::size_t index)>& job) {
  const std::size_t workers = worker_count(requested, n);
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) job(0, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::size_t failed_index = n;
  std::exception_ptr error;
  const auto run = [&](std::size_t worker) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        job(worker, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (i < failed_index) {
          failed_index = i;
          error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> pool;
  {
    // Joins on every path: if spawning a thread throws, the ones already
    // running finish the jobs before the spawn error propagates.
    struct Join {
      std::vector<std::thread>& pool;
      ~Join() {
        for (std::thread& t : pool) t.join();
      }
    } join{pool};
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(run, w);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace atcd::util
