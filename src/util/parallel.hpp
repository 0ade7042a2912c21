#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sg {

/// Runs `body(worker, index)` once for every index in [0, n), sharded over
/// up to `workers` host threads that pull indices off one atomic counter.
/// Worker ids are dense in [0, workers), so callers can keep per-worker
/// accumulators without locks. With one worker (or one index) every call
/// runs inline on the caller. Every thread is joined before this returns;
/// if any body throws, the workers stop pulling new indices and the first
/// exception is rethrown on the caller.
template <typename Body>
void parallel_for(std::size_t n, int workers, Body&& body) {
  const std::size_t width =
      std::min<std::size_t>(n, static_cast<std::size_t>(std::max(1, workers)));
  if (width <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(0, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mtx;
  std::exception_ptr error;
  // Called from a catch block: stops the hand-out and keeps the first error.
  auto fail = [&] {
    next.store(n);
    const std::lock_guard<std::mutex> lock(error_mtx);
    if (!error) error = std::current_exception();
  };
  auto drain = [&](int worker) {
    try {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) body(worker, i);
    } catch (...) {
      fail();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(width - 1);
  for (std::size_t w = 1; w < width; ++w) {
    try {
      pool.emplace_back(drain, static_cast<int>(w));
    } catch (...) {  // No thread was started; the ones that were still get joined.
      fail();
      break;
    }
  }
  drain(0);
  for (std::thread& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace sg
