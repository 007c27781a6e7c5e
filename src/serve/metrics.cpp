#include "serve/metrics.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace qa
{
namespace serve
{

const std::vector<double>&
LatencyHistogram::bucketBounds()
{
    static const std::vector<double> bounds = {
        0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
        50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0};
    return bounds;
}

LatencyHistogram::LatencyHistogram()
    : counts_(bucketBounds().size() + 1, 0)
{}

void
LatencyHistogram::record(double ms)
{
    if (ms < 0.0) ms = 0.0;
    const auto& bounds = bucketBounds();
    const size_t bucket = size_t(
        std::upper_bound(bounds.begin(), bounds.end(), ms) - bounds.begin());
    std::lock_guard<std::mutex> lock(mutex_);
    ++counts_[bucket];
    ++total_;
    sum_ms_ += ms;
    max_ms_ = std::max(max_ms_, ms);
}

LatencyHistogramSnapshot
LatencyHistogram::snapshot() const
{
    LatencyHistogramSnapshot snap;
    snap.bounds = bucketBounds();
    std::lock_guard<std::mutex> lock(mutex_);
    snap.counts = counts_;
    snap.total = total_;
    snap.sum_ms = sum_ms_;
    snap.max_ms = max_ms_;
    return snap;
}

MetricsSnapshot
ServiceMetrics::snapshot() const
{
    MetricsSnapshot snap;
    snap.accepted = accepted.load(std::memory_order_relaxed);
    snap.rejected = rejected.load(std::memory_order_relaxed);
    snap.completed = completed.load(std::memory_order_relaxed);
    snap.failed = failed.load(std::memory_order_relaxed);
    snap.cancelled = cancelled.load(std::memory_order_relaxed);
    snap.retried = retried.load(std::memory_order_relaxed);
    snap.shed = shed.load(std::memory_order_relaxed);
    snap.worker_lost = worker_lost.load(std::memory_order_relaxed);
    snap.respawned = respawned.load(std::memory_order_relaxed);
    for (size_t k = 0; k < backend_jobs.size(); ++k) {
        snap.backend_jobs[k] =
            backend_jobs[k].load(std::memory_order_relaxed);
    }
    snap.queue_wait = queue_wait.snapshot();
    snap.execute = execute.snapshot();
    return snap;
}

namespace
{

void
renderHistogram(std::ostream& os, const char* name,
                const LatencyHistogramSnapshot& hist)
{
    os << "  " << name << ": n=" << hist.total << " mean="
       << std::fixed << std::setprecision(3) << hist.meanMs()
       << "ms max=" << hist.max_ms << "ms\n";
}

} // namespace

std::string
MetricsSnapshot::str() const
{
    std::ostringstream oss;
    oss << "service metrics:\n"
        << "  jobs: accepted=" << accepted << " rejected=" << rejected
        << " completed=" << completed << " failed=" << failed
        << " cancelled=" << cancelled << "\n"
        << "  resilience: retried=" << retried << " shed=" << shed
        << " worker_lost=" << worker_lost << " respawned=" << respawned
        << "\n"
        << "  queue: depth=" << queue_depth << " in_flight=" << in_flight
        << "\n"
        << "  cache: hits=" << cache_hits << " misses=" << cache_misses
        << " insertions=" << cache_insertions << " evictions="
        << cache_evictions << " entries=" << cache_entries
        << " hit_rate=" << std::fixed << std::setprecision(3)
        << cacheHitRate() << "\n"
        << "  backends:";
    for (size_t k = 0; k < backend_jobs.size(); ++k) {
        oss << " " << backendName(BackendKind(k)) << "="
            << backend_jobs[k];
    }
    oss << "\n";
    renderHistogram(oss, "queue_wait", queue_wait);
    renderHistogram(oss, "execute", execute);
    return oss.str();
}

} // namespace serve
} // namespace qa
