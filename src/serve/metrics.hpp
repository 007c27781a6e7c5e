/**
 * @file
 * Lightweight service observability: monotonic job counters and
 * fixed-bucket latency histograms for the queue-wait and execute stages,
 * snapshot on demand (ServiceMetrics::MetricsSnapshot via
 * Scheduler::metrics()).
 *
 * Counters are atomics (hot path: one relaxed increment); histograms
 * take a mutex per record, which is negligible next to the milliseconds
 * of shot execution each record represents.
 */
#ifndef QA_SERVE_METRICS_HPP
#define QA_SERVE_METRICS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <mutex>

#include "sim/options.hpp"

namespace qa
{
namespace serve
{

/** Immutable copy of one latency histogram. */
struct LatencyHistogramSnapshot
{
    /**
     * counts[i] tallies samples in [bounds[i-1], bounds[i]) ms (the
     * first bucket from 0, the last unbounded). bounds has one fewer
     * entry than counts.
     */
    std::vector<double> bounds;
    std::vector<uint64_t> counts;
    uint64_t total = 0;
    double sum_ms = 0.0;
    double max_ms = 0.0;

    double
    meanMs() const
    {
        return total == 0 ? 0.0 : sum_ms / double(total);
    }
};

/** Fixed-bucket latency histogram (roughly log-spaced, 0.1ms .. 5s). */
class LatencyHistogram
{
  public:
    LatencyHistogram();

    void record(double ms);

    LatencyHistogramSnapshot snapshot() const;

    /** The shared bucket upper bounds in milliseconds. */
    static const std::vector<double>& bucketBounds();

  private:
    mutable std::mutex mutex_;
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
    double sum_ms_ = 0.0;
    double max_ms_ = 0.0;
};

/** Point-in-time view of the whole service (see Scheduler::metrics). */
struct MetricsSnapshot
{
    uint64_t accepted = 0;  ///< Jobs admitted into the queue.
    uint64_t rejected = 0;  ///< Jobs refused at admission (queue full).
    uint64_t completed = 0; ///< Jobs finished with status kOk.
    uint64_t failed = 0;    ///< Jobs finished with status kFailed.
    uint64_t cancelled = 0; ///< Jobs cancelled by stop().

    uint64_t retried = 0;     ///< Attempts re-queued after a transient failure.
    uint64_t shed = 0;        ///< Submissions refused by the circuit breaker.
    uint64_t worker_lost = 0; ///< Attempts reclaimed from a wedged/dead worker.
    uint64_t respawned = 0;   ///< Worker slots restarted by the watchdog.

    size_t queue_depth = 0; ///< Jobs waiting for a worker right now.
    size_t in_flight = 0;   ///< Jobs executing right now.

    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_insertions = 0;
    uint64_t cache_evictions = 0;
    size_t cache_entries = 0;

    /** Executed (non-cache-hit) jobs, indexed by resolved BackendKind. */
    std::array<uint64_t, kNumBackendKinds> backend_jobs{};

    LatencyHistogramSnapshot queue_wait;
    LatencyHistogramSnapshot execute;

    double
    cacheHitRate() const
    {
        const uint64_t lookups = cache_hits + cache_misses;
        return lookups == 0 ? 0.0 : double(cache_hits) / double(lookups);
    }

    /** Multi-line human-readable rendering (qassertd logs, benches). */
    std::string str() const;
};

/** The mutable counters behind a MetricsSnapshot. */
class ServiceMetrics
{
  public:
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> failed{0};
    std::atomic<uint64_t> cancelled{0};
    std::atomic<uint64_t> retried{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> worker_lost{0};
    std::atomic<uint64_t> respawned{0};

    /** Executed jobs per resolved BackendKind (cache hits not counted). */
    std::array<std::atomic<uint64_t>, kNumBackendKinds> backend_jobs{};

    LatencyHistogram queue_wait;
    LatencyHistogram execute;

    /** Bump the per-backend executed-job counter. */
    void
    recordBackend(BackendKind kind)
    {
        backend_jobs[size_t(kind)].fetch_add(1, std::memory_order_relaxed);
    }

    /** Snapshot the counters; queue/cache fields are the caller's. */
    MetricsSnapshot snapshot() const;
};

} // namespace serve
} // namespace qa

#endif // QA_SERVE_METRICS_HPP
