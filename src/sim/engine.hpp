/**
 * @file
 * The pooled shot loop under every shot-level caller: the backends'
 * runPrepared (backend/backend.hpp), the assertion-policy runner, and
 * the fault-injection campaign.
 *
 * runShotPool runs shot bodies on a worker pool with counter-based
 * per-shot RNG streams (Rng::forStream), first-worker-exception
 * propagation, and deadline-based cancellation that returns partial
 * results flagged `truncated` instead of running unbounded. What one
 * shot does is the backend's business: backend/shot_program.hpp holds
 * the one shot plan (prefix caching, suffix replay, terminal sampling)
 * every backend shares.
 */
#ifndef QA_SIM_ENGINE_HPP
#define QA_SIM_ENGINE_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "sim/noise.hpp"
#include "sim/statevector.hpp"

namespace qa
{

/**
 * Flip a recorded measurement outcome with the model's asymmetric
 * readout error (one bernoulli draw per configured direction). Shared
 * by every backend so classical readout consumes identical RNG draws
 * regardless of how the quantum outcome was produced.
 */
int applyReadoutError(int outcome, const NoiseModel& noise, Rng& rng);

/** Worker count for a shot loop: <= 0 means hardware concurrency. */
int resolveShotThreads(int requested, int shots);

/** Wall-clock budget for a shot loop; inactive when ms <= 0. */
class ShotDeadline
{
  public:
    explicit ShotDeadline(double ms)
        : active_(ms > 0.0),
          expiry_(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          ms > 0.0 ? ms : 0.0)))
    {}

    bool active() const { return active_; }

    bool
    expired() const
    {
        return active_ && std::chrono::steady_clock::now() >= expiry_;
    }

  private:
    bool active_;
    std::chrono::steady_clock::time_point expiry_;
};

/** Outcome of one pooled shot loop. */
struct ShotLoopStatus
{
    /** Shots actually executed (== requested unless truncated). */
    int completed = 0;

    /** True when the deadline cancelled the loop before all shots ran. */
    bool truncated = false;
};

/**
 * Run `shots` shot bodies on up to `num_threads` workers, accumulating
 * into per-worker `locals` (resized to the worker count; merging is the
 * caller's job and must be order-insensitive or merged in index order).
 *
 * `make_worker` builds one worker function per pool thread (holding any
 * reusable per-worker buffers); each call worker(shot, local) must
 * depend only on the shot index, which makes the merged result
 * independent of scheduling. Workers pull fixed-size chunks off an
 * atomic cursor.
 *
 * Robustness contract:
 *  - an exception thrown by any worker stops the pool, joins every
 *    thread, and is rethrown on the calling thread;
 *  - when `deadline_ms` > 0 and the budget expires mid-run, workers
 *    stop cooperatively and the status reports the completed count with
 *    `truncated` set — partial results, never leaked threads.
 */
template <typename Local, typename MakeWorker>
ShotLoopStatus
runShotPool(int shots, int num_threads, double deadline_ms,
            std::vector<Local>& locals, const MakeWorker& make_worker)
{
    const ShotDeadline deadline(deadline_ms);
    const int threads = resolveShotThreads(num_threads, shots);
    ShotLoopStatus status;

    if (threads <= 1) {
        locals.clear();
        locals.resize(1);
        auto worker = make_worker();
        for (int s = 0; s < shots; ++s) {
            if (deadline.active() && (s & 63) == 0 && deadline.expired()) {
                break;
            }
            worker(s, locals[0]);
            ++status.completed;
        }
        status.truncated = status.completed < shots;
        return status;
    }

    locals.clear();
    locals.resize(size_t(threads));
    std::atomic<int> cursor{0};
    std::atomic<int> completed{0};
    const int chunk = std::max(1, shots / (threads * 8));
    FirstException failure;
    std::vector<std::thread> pool;
    ThreadJoiner joiner(pool);
    try {
        pool.reserve(size_t(threads));
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                // The shot loop is the outer parallelism: keep the gate
                // kernels this worker calls serial.
                SerialKernelScope serial;
                int done = 0;
                try {
                    auto worker = make_worker();
                    bool expired = false;
                    while (!expired && !failure.armed()) {
                        if (deadline.expired()) break;
                        const int begin = cursor.fetch_add(chunk);
                        if (begin >= shots) break;
                        const int end = std::min(shots, begin + chunk);
                        for (int s = begin; s < end; ++s) {
                            worker(s, locals[size_t(t)]);
                            ++done;
                            if (deadline.active() && (done & 63) == 0 &&
                                deadline.expired()) {
                                expired = true;
                                break;
                            }
                        }
                    }
                } catch (...) {
                    failure.capture();
                }
                completed.fetch_add(done, std::memory_order_relaxed);
            });
        }
    } catch (...) {
        // Thread creation failed mid-spawn: arm the latch so live
        // workers stop pulling chunks, join them while cursor/locals
        // are still alive, then surface the spawn error.
        failure.capture();
    }
    joiner.joinAll();
    failure.rethrow();
    status.completed = completed.load(std::memory_order_relaxed);
    status.truncated = status.completed < shots;
    return status;
}

} // namespace qa

#endif // QA_SIM_ENGINE_HPP
