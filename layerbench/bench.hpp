/**
 * @file
 * Shared declarations of the layer-split benchmark: the job catalog a
 * workload runs, the exact references its results are checked against,
 * the span recorder of the traced run, and the per-workload record the
 * driver turns into metrics.
 *
 * The benchmark drives qassert only through public entry points:
 * serve::parseRequest (or its public pieces JsonValue::parse, parseQasm
 * and buildRequest in the traced run), acomp::autoAssert,
 * backend::routeShots, Backend::prepare, backend::runPrepared,
 * serve::executeJob, serve::encodeResult and serve::Scheduler.
 */
#ifndef LAYERBENCH_BENCH_HPP
#define LAYERBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/job.hpp"
#include "serve/wire.hpp"
#include "sim/result.hpp"

namespace layerbench
{

using SteadyClock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock since process start. */
int64_t nowNs();

/** splitmix64 step: the benchmark's own seeded generator. */
uint64_t splitmix(uint64_t& state);

/** Uniform double in [0, 1) from the benchmark's generator. */
double uniform01(uint64_t& state);

/** Table III cost columns of a job's assertion fragments. */
struct AssertionCost
{
    long cx = 0;
    long sq_gates = 0;
    long ancillas = 0;
    long measures = 0;
};

/**
 * What a job's sampled result must agree with. Exact references carry
 * the full raw distribution over every classical bit of the submitted
 * circuit; auto_assert references carry the raw program's distribution
 * (its generated assertions must always pass). Jobs too wide for a
 * reference are checked for zero truncation error and replay identity.
 */
struct Reference
{
    enum class Kind
    {
        kExact,      ///< raw distribution + assertion slots
        kAutoAssert, ///< raw program distribution, pass rate 1
        kWide        ///< no reference: truncation + replay only
    };
    Kind kind = Kind::kExact;
    qa::Distribution raw;
    std::vector<std::vector<int>> slots;
};

/** One request of a workload catalog. */
struct CatalogJob
{
    std::string name;   ///< family label, e.g. "ghz5_swap_ndd"
    std::string id;     ///< wire id
    std::string line;   ///< the NDJSON request line
    int shots = 0;
    int reference = -1; ///< index into Catalog::references
    AssertionCost cost;
};

/** A workload's generated requests and their references. */
struct Catalog
{
    std::vector<CatalogJob> jobs;
    std::vector<Reference> references;
};

/** Build the named workload's catalog from the seed (deterministic). */
Catalog buildCatalog(const std::string& workload, uint64_t seed);

/** True when `workload` names a known workload. */
bool knownWorkload(const std::string& workload);

/**
 * Check one executed result against its job's reference. Appends a
 * one-line reason to `why` and returns false on any violation.
 */
bool checkResult(const CatalogJob& job, const Reference& ref,
                 const qa::serve::JobResult& result, std::string* why);

/** One recorded span (traced run only). */
struct Span
{
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t id = 0;
    int32_t parent = -1;
    int64_t job = 0;
};

/**
 * In-memory span recorder for one thread. Spans nest through an
 * explicit stack; the root span of a job is the one opened with no
 * parent on the stack. Disabled recorders cost one branch per call.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span under the innermost open span; returns its id. */
    int32_t open(const char* name, int64_t job);

    /** Close the innermost open span (must be `id`). */
    void close(int32_t id);

    /**
     * Take the innermost open span off the stack without closing it, so
     * other jobs' spans can run while this job waits; resume() puts it
     * back before its remaining children and close().
     */
    void suspend() { stack_.pop_back(); }
    void resume(int32_t id) { stack_.push_back(id); }

    /** Close every open span down to and including `id` (unwinding). */
    void closeThrough(int32_t id);

    /** Record an already-finished span under `parent` (-1: root). */
    void record(const char* name, int64_t job, int32_t parent,
                int64_t start_ns, int64_t end_ns);

    /** Run `fn` inside a span named `name`. */
    template <typename Fn>
    auto
    span(const char* name, int64_t job, Fn&& fn)
    {
        if (!enabled_) return fn();
        struct Guard
        {
            Tracer& tracer;
            int32_t id;
            ~Guard() { tracer.close(id); }
        } guard{*this, open(name, job)};
        return fn();
    }

    const std::vector<Span>& spans() const { return spans_; }

    /** Write every span as NDJSON (one object per line). */
    bool writeNdjson(const std::string& path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

/** Per-job self time of each layer, reduced from a trace. */
struct LayerSplit
{
    /** layer name -> per-job self time (ns), one entry per job using it. */
    std::map<std::string, std::vector<double>> self_ns;

    /** Per-job wall time of the root span (ns). */
    std::vector<double> wall_ns;

    /** Per-job share of wall time not covered by any layer span. */
    std::vector<double> unattributed;

    /**
     * Jobs whose self times do not sum to their wall time (overlapping or
     * escaping spans) or whose layers leave more than kMaxUnattributed
     * of it uncovered. The traced run counts them as failed.
     */
    int inconsistent = 0;
};

/** Largest share of a traced job's wall time outside every layer span. */
constexpr double kMaxUnattributed = 0.10;

/**
 * Reduce spans to per-layer self time: a span's self time is its
 * duration minus the part of it its children cover. Only jobs whose id
 * lies in [job_lo, job_hi) are reduced. Verifies that each job's layer
 * self times account for its root span's duration.
 */
LayerSplit reduceSpans(const std::vector<Span>& spans, int64_t job_lo,
                       int64_t job_hi);

/** Samples and counters one workload run produces. */
struct RunRecord
{
    // --- end to end (untraced window) ---
    double setup_s = 0.0;
    std::vector<double> job_ms;        ///< per job latency, line in -> out
    std::map<std::string, std::vector<double>> job_ms_by_name;
    long window_jobs = 0;              ///< jobs completed in the window
    long window_shots = 0;             ///< simulated (not cached) shots
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> failures; ///< first few reasons

    // --- host ---
    double cpu_s = 0.0;  ///< process CPU time over the measured window
    double wall_s = 0.0; ///< wall time of the measured window

    // --- traced window ---
    double untraced_jobs_per_s = 0.0;
    double traced_jobs_per_s = 0.0;
    LayerSplit split;          ///< jobs of the traced window
    LayerSplit replay_split;   ///< service_zipf: traced miss replays
    std::vector<double> queue_ms, exec_ms, hit_ms, miss_ms;
    std::vector<double> response_bytes;
    std::vector<double> distinct_outcomes;
    std::vector<double> acomp_slots, acomp_variants;
    std::map<std::string, long> jobs_by_kind;
    long executed_jobs = 0;
    long fusion_gates_in = 0, fusion_gates_out = 0;
    double max_truncation_error = 0.0;
    double cache_hit_ratio = 0.0;
    long cache_lookups = 0;
    long cache_evictions = 0;
    AssertionCost catalog_cost;
    long catalog_jobs = 0;
    int shots_per_job = 1; ///< every job of a workload runs the same shots
};

/**
 * Workload runners (workloads.cpp): one set-up, then `seconds` of
 * measurement (split untraced/traced when `trace`).
 */
void runLibraryWorkload(const std::string& workload, uint64_t seed,
                        double seconds, bool trace, RunRecord* rec,
                        Tracer* tracer);
void runServiceWorkload(uint64_t seed, double seconds, bool trace,
                        RunRecord* rec, Tracer* tracer);

} // namespace layerbench

#endif // LAYERBENCH_BENCH_HPP
