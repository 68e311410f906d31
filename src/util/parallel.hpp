#pragma once
/// \file parallel.hpp
/// The one worker loop: every fan-out in the library (engine::solve_all,
/// the API's `batch` op, the sensitivity and portfolio analyses) runs
/// its jobs through for_each_index().
///
/// Workers pull the next job index from one atomic counter, so fast
/// jobs never wait behind slow ones.  The thread count is
/// worker_count(): the request (0 = hardware concurrency), capped by
/// the hardware and by the job count, so no caller can start more
/// threads than the machine has cores, whatever it asks for.

#include <cstddef>
#include <functional>

namespace atcd::util {

/// The threads for_each_index() runs \p n jobs on:
/// min(requested or hardware, hardware, n), and at least 1.
std::size_t worker_count(std::size_t requested, std::size_t n);

/// Runs job(worker, i) once for every i in [0, n) on
/// worker_count(requested, n) threads; `worker` in [0, worker_count)
/// names the thread, so a caller can keep per-thread scratch (a working
/// copy of a model) in a vector of that size.  A single worker runs on
/// the calling thread; more are spawned and joined.  Jobs must not touch
/// each other's outputs.  Once a job throws, workers claim no further
/// index (every lower index was claimed already and still runs); after
/// the join the exception of the lowest failing index is rethrown, so
/// the error a caller sees does not depend on the thread count.
void for_each_index(
    std::size_t n, std::size_t requested,
    const std::function<void(std::size_t worker, std::size_t index)>& job);

}  // namespace atcd::util
