/**
 * @file
 * The three workloads. many_shots and deep_circuits are library
 * callers: one job at a time on one thread, parseRequest -> executeJob
 * -> encodeResult. service_zipf is one closed-loop client keeping eight
 * requests outstanding against an in-process serve::Scheduler.
 *
 * Untraced windows call the public one-shot entry points; traced
 * windows split the same work into its public layer calls
 * (JsonValue::parse, parseQasm, buildRequest, acomp::autoAssert,
 * backend::routeShots, Backend::prepare, backend::runPrepared, the
 * slot post-selection, encodeResult) with a span around each, and
 * verify that the split reproduces executeJob's payload bit for bit.
 */
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <ctime>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>

#include "acomp/compiler.hpp"
#include "backend/backend.hpp"
#include "bench.hpp"
#include "circuit/qasm.hpp"
#include "serve/scheduler.hpp"

namespace layerbench
{

using namespace qa;

namespace
{

constexpr int kServiceWorkers = 2;
constexpr size_t kServiceCache = 512;
constexpr int kServiceWindow = 8;      // outstanding requests
constexpr int kServiceWarmup = 1500;   // requests before timing starts
constexpr double kServiceZipfS = 1.1;
constexpr size_t kServiceReplays = 256; // traced miss replays
constexpr int64_t kReplayJobBase = int64_t(1) << 40;
const char* const kStubQasm = "OPENQASM 2.0;\nqreg q[1];\n";

double
msBetween(int64_t a, int64_t b)
{
    return double(b - a) * 1e-6;
}

/** The SimOptions executeJob derives from a spec. */
SimOptions
specOptions(const serve::JobSpec& spec)
{
    SimOptions options;
    options.shots = spec.shots;
    options.seed = spec.seed;
    options.noise = spec.noise.enabled() ? &spec.noise : nullptr;
    options.num_threads = spec.num_threads;
    options.deadline_ms = spec.deadline_ms;
    options.backend = spec.backend;
    options.mps_chi = spec.mps_chi;
    options.mps_trunc_tol = spec.mps_trunc_tol;
    return options;
}

const char*
prepareSpan(BackendKind kind)
{
    switch (kind) {
      case BackendKind::kStabilizer: return "stab.prepare";
      case BackendKind::kMps:        return "mps.prepare";
      default:                       return "sim.prepare";
    }
}

const char*
shotSpan(BackendKind kind)
{
    switch (kind) {
      case BackendKind::kStabilizer: return "stab.shots";
      case BackendKind::kMps:        return "mps.shots";
      default:                       return "sim.shots";
    }
}

/** parseRequest split into its public pieces, a span around each. */
serve::WireRequest
decodeTraced(const std::string& line, Tracer& tracer, int64_t job)
{
    std::string qasm;
    serve::JsonValue request = tracer.span("serve.decode", job, [&] {
        serve::JsonValue parsed = serve::JsonValue::parse(line);
        if (const serve::JsonValue* text = parsed.find("qasm")) {
            if (text->isString()) qasm = text->asString();
        }
        return parsed;
    });
    std::vector<QasmPos> positions;
    QuantumCircuit circuit = tracer.span("circuit.parse", job, [&] {
        return parseQasm(qasm, &positions);
    });
    serve::WireRequest out = tracer.span("serve.decode", job, [&] {
        request.set("qasm", serve::JsonValue::makeString(kStubQasm));
        return serve::buildRequest(request);
    });
    out.spec.circuit = std::move(circuit);
    out.spec.qasm_positions = std::move(positions);
    return out;
}

/** Record a failure (keeps the first few reasons). */
void
noteFailure(RunRecord* rec, const std::string& why)
{
    if (rec->failures.size() < 8) rec->failures.push_back(why);
}

/** Process CPU seconds (all threads). */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

bool
allZero(const std::string& bits, const std::vector<int>& clbits)
{
    for (int c : clbits) {
        if (bits[size_t(c)] != '0') return false;
    }
    return true;
}

/**
 * executeJob's plain and auto_assert (discard policy, one variant)
 * paths split into their public layer calls. The result's payload is
 * bit-identical to executeJob's; callers verify that.
 */
serve::JobResult
executeTraced(const serve::JobSpec& spec, Tracer& tracer, int64_t job)
{
    const SimOptions options = specOptions(spec);
    serve::JobResult result;
    result.tag = spec.tag;

    const QuantumCircuit* circuit = &spec.circuit;
    std::vector<std::vector<int>> slots = spec.assert_clbits;
    std::optional<acomp::CompiledProgram> compiled;
    if (spec.auto_assert) {
        acomp::AcompOptions aopts;
        aopts.lowering = spec.assert_lowering;
        aopts.backend = spec.backend;
        compiled = tracer.span("acomp.compile", job, [&] {
            return acomp::autoAssert(spec.circuit, aopts,
                                     &spec.qasm_positions);
        });
        QA_REQUIRE(compiled->variants.size() == 1 &&
                       spec.policy == AssertionPolicy::kDiscard,
                   "traced split covers single-variant discard jobs");
        circuit = &compiled->variants[0];
        slots.clear();
        for (const acomp::SlotSummary& slot : compiled->slots) {
            slots.push_back(slot.clbits);
        }
    }

    const backend::BackendChoice choice = tracer.span(
        "backend.route", job,
        [&] { return backend::routeShots(*circuit, options); });
    QA_REQUIRE_CODE(choice.capable, ErrorCode::kBadRequest, choice.reason);
    const std::shared_ptr<const backend::PreparedCircuit> prepared =
        tracer.span(prepareSpan(choice.backend), job, [&] {
            return backend::backendFor(choice.backend)
                .prepare(*circuit, options);
        });
    const Counts raw = tracer.span(shotSpan(choice.backend), job, [&] {
        return backend::runPrepared(*prepared, options);
    });
    result.backend = choice;
    result.mps_truncation_error = prepared->truncationError();

    tracer.span("core.postselect", job, [&] {
        auto passes = [&](const std::string& bits) {
            for (const std::vector<int>& slot : slots) {
                if (!allZero(bits, slot)) return false;
            }
            return true;
        };
        if (compiled) {
            // runVariantsPolicy under kDiscard: first-attempt verdicts,
            // accepted shots only.
            const Counts accepted = filterCounts(raw, passes);
            result.slot_error_rate.clear();
            for (const std::vector<int>& slot : slots) {
                long flagged = 0;
                for (const auto& [bits, n] : raw.map) {
                    if (!allZero(bits, slot)) flagged += n;
                }
                result.slot_error_rate.push_back(double(flagged) /
                                                 double(raw.shots));
            }
            result.pass_rate = double(accepted.shots) / double(raw.shots);
            result.counts = accepted;
            result.truncated = raw.truncated;
            result.program_counts =
                marginalCounts(accepted, compiled->program_clbits);
            result.assertions = compiled->slots;
            result.assert_variants = 1;
            return;
        }
        result.counts = raw;
        result.truncated = raw.truncated;
        if (slots.empty()) {
            result.program_counts = raw;
            return;
        }
        for (const std::vector<int>& slot : slots) {
            result.slot_error_rate.push_back(1.0 -
                                             raw.fractionAllZero(slot));
        }
        result.pass_rate = raw.fraction(passes);
        std::vector<bool> is_slot(size_t(circuit->numClbits()), false);
        for (const std::vector<int>& slot : slots) {
            for (int c : slot) is_slot[size_t(c)] = true;
        }
        std::vector<int> program_bits;
        for (int c = 0; c < circuit->numClbits(); ++c) {
            if (!is_slot[size_t(c)]) program_bits.push_back(c);
        }
        result.program_counts =
            marginalCounts(filterCounts(raw, passes), program_bits);
    });
    return result;
}

/** Per-result facts the traced run reports (executed results only). */
void
noteExecuted(RunRecord* rec, const serve::JobResult& result)
{
    ++rec->executed_jobs;
    ++rec->jobs_by_kind[backendName(result.backend.backend)];
    rec->distinct_outcomes.push_back(double(result.counts.map.size()));
    if (result.backend.fusion_enabled) {
        rec->fusion_gates_in += long(result.backend.fusion.gates_in);
        rec->fusion_gates_out += long(result.backend.fusion.gates_out);
    }
    rec->max_truncation_error =
        std::max(rec->max_truncation_error, result.mps_truncation_error);
    if (!result.assertions.empty() || result.assert_variants > 1) {
        rec->acomp_slots.push_back(double(result.assertions.size()));
        rec->acomp_variants.push_back(double(result.assert_variants));
    }
}

/** Compare a replayed payload with the first one seen for the job. */
void
checkReplay(RunRecord* rec, const CatalogJob& job,
            const serve::JobResult& result, std::optional<Hash128>& first,
            const char* what)
{
    const Hash128 hash = serve::payloadHash(result);
    if (!first) {
        first = hash;
        return;
    }
    if (!(hash == *first)) {
        ++rec->failed;
        noteFailure(rec, job.name + " (" + job.id + "): " + what +
                             " payload differs from the first execution");
    }
}

void
noteCatalogCost(RunRecord* rec, const Catalog& catalog)
{
    rec->catalog_cost = AssertionCost{};
    for (const CatalogJob& job : catalog.jobs) {
        rec->catalog_cost.cx += job.cost.cx;
        rec->catalog_cost.sq_gates += job.cost.sq_gates;
        rec->catalog_cost.ancillas += job.cost.ancillas;
        rec->catalog_cost.measures += job.cost.measures;
    }
    rec->catalog_jobs = long(catalog.jobs.size());
    if (!catalog.jobs.empty()) rec->shots_per_job = catalog.jobs[0].shots;
}

} // namespace

// ------------------------------------------------------------ library path

void
runLibraryWorkload(const std::string& workload, uint64_t seed,
                   double seconds, bool trace, RunRecord* rec,
                   Tracer* tracer)
{
    // One library call: line in -> response line out.
    auto runOne = [&](const CatalogJob& job, serve::JobResult* result,
                      std::string* response) {
        const serve::WireRequest request = serve::parseRequest(job.line);
        *result = serve::executeJob(request.spec);
        *response = serve::encodeResult(request.id, *result);
    };

    // Set-up: catalog and exact references, then one warm-up execution
    // of every job, whose payloads every later execution must match.
    const int64_t t0 = nowNs();
    const Catalog catalog = buildCatalog(workload, seed);
    std::vector<serve::JobResult> results(catalog.jobs.size());
    for (size_t i = 0; i < catalog.jobs.size(); ++i) {
        std::string response;
        try {
            runOne(catalog.jobs[i], &results[i], &response);
        } catch (const std::exception& e) {
            results[i].status = serve::JobStatus::kFailed;
            results[i].error_message = e.what();
        }
    }
    rec->setup_s = double(nowNs() - t0) * 1e-9;

    std::vector<std::optional<Hash128>> first(catalog.jobs.size());
    for (size_t i = 0; i < catalog.jobs.size(); ++i) {
        const CatalogJob& job = catalog.jobs[i];
        ++rec->attempted;
        std::string why;
        if (!checkResult(job, catalog.references[size_t(job.reference)],
                         results[i], &why)) {
            ++rec->failed;
            noteFailure(rec, why);
            continue;
        }
        first[i] = serve::payloadHash(results[i]);
    }
    noteCatalogCost(rec, catalog);

    // Whole rounds over the catalog until the window is spent. Returns
    // the number of jobs run.
    auto window = [&](double budget_s, bool traced, int64_t* job_id) {
        long jobs = 0;
        const int64_t start = nowNs();
        while (double(nowNs() - start) * 1e-9 < budget_s) {
            for (size_t i = 0; i < catalog.jobs.size(); ++i, ++jobs) {
                const CatalogJob& job = catalog.jobs[i];
                serve::JobResult result;
                std::string response;
                const int64_t id = (*job_id)++;
                const int64_t t0 = nowNs();
                int32_t root = -1;
                try {
                    if (traced) {
                        root = tracer->open("job", id);
                        const serve::WireRequest request =
                            decodeTraced(job.line, *tracer, id);
                        const int64_t exec0 = nowNs();
                        result = executeTraced(request.spec, *tracer, id);
                        rec->exec_ms.push_back(msBetween(exec0, nowNs()));
                        response = tracer->span("serve.encode", id, [&] {
                            return serve::encodeResult(request.id, result);
                        });
                        tracer->close(root);
                    } else {
                        runOne(job, &result, &response);
                    }
                } catch (const std::exception& e) {
                    if (root >= 0) tracer->closeThrough(root);
                    result.status = serve::JobStatus::kFailed;
                    result.error_message = e.what();
                }
                const double ms = msBetween(t0, nowNs());
                ++rec->attempted;
                if (result.status != serve::JobStatus::kOk) {
                    ++rec->failed;
                    noteFailure(rec, job.name + ": " + result.error_message);
                    continue;
                }
                checkReplay(rec, job, result, first[i],
                            traced ? "traced" : "timed");
                if (!traced) {
                    // Every library job is an uncached execution.
                    rec->job_ms.push_back(ms);
                    rec->job_ms_by_name[job.name].push_back(ms);
                    if (trace) rec->miss_ms.push_back(ms);
                } else {
                    rec->response_bytes.push_back(double(response.size()));
                    noteExecuted(rec, result);
                }
            }
        }
        return jobs;
    };

    int64_t job_id = 0;
    const double cpu0 = processCpuSeconds();
    const int64_t wall0 = nowNs();
    rec->window_jobs = window(trace ? seconds / 2 : seconds, false, &job_id);
    rec->cpu_s = processCpuSeconds() - cpu0;
    rec->wall_s = double(nowNs() - wall0) * 1e-9;
    rec->window_shots = rec->window_jobs * long(rec->shots_per_job);
    if (!trace) return;

    rec->untraced_jobs_per_s = double(rec->window_jobs) / rec->wall_s;
    const int64_t traced_lo = job_id;
    const int64_t traced0 = nowNs();
    const long traced_jobs = window(seconds / 2, true, &job_id);
    rec->traced_jobs_per_s =
        double(traced_jobs) / (double(nowNs() - traced0) * 1e-9);
    rec->split = reduceSpans(tracer->spans(), traced_lo, job_id);
}

// ------------------------------------------------------------ service path

namespace
{

/** Zipf(s) over [0, n) by inverse CDF. */
class Zipf
{
  public:
    Zipf(size_t n, double s)
    {
        double total = 0.0;
        for (size_t i = 0; i < n; ++i) {
            total += 1.0 / std::pow(double(i + 1), s);
            cdf_.push_back(total);
        }
        for (double& c : cdf_) c /= total;
    }

    size_t
    operator()(uint64_t& rng) const
    {
        const double u = uniform01(rng);
        return size_t(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                      cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

/** Everything one closed-loop window observes. */
struct WindowStats
{
    long shots = 0;                ///< executed (not cached) shots
    std::vector<double> latency_ms;
    std::vector<size_t> missed;    ///< entries executed (not cache hits)
};

/** The closed-loop client: state shared by its windows. */
struct ServiceClient
{
    const Catalog* catalog = nullptr;
    serve::Scheduler* scheduler = nullptr;
    RunRecord* rec = nullptr;
    Tracer* tracer = nullptr;
    const Zipf* zipf = nullptr;
    uint64_t stream = 0;
    std::vector<std::optional<Hash128>> first;
    std::vector<std::optional<serve::JobResult>> unchecked;
    int64_t next_job = 0;

    /**
     * Run one window: keep kServiceWindow requests outstanding, send
     * until `requests` are sent or `budget_s` is spent, then drain.
     */
    WindowStats
    run(long requests, double budget_s, bool traced, bool record)
    {
        // Scheduler-side samples come from untraced windows only.
        const bool sched_samples = record && !traced;
        struct Outstanding
        {
            size_t entry = 0;
            std::string id;
            int64_t job = 0;
            int64_t t0 = 0;
            int64_t submitted = 0;
            int32_t root = -1;
        };
        struct Completion
        {
            int slot = 0;
            serve::JobResult result;
            int64_t done = 0;
        };
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<Completion> done;
        std::vector<Outstanding> slots(kServiceWindow);
        std::vector<int> free_slots;
        for (int s = kServiceWindow - 1; s >= 0; --s) free_slots.push_back(s);

        WindowStats stats;
        const int64_t start = nowNs();
        long sent = 0;
        int in_flight = 0;
        auto sending = [&] {
            return sent < requests &&
                   double(nowNs() - start) * 1e-9 < budget_s;
        };

        while (true) {
            while (!free_slots.empty() && sending()) {
                const int slot = free_slots.back();
                free_slots.pop_back();
                Outstanding& o = slots[size_t(slot)];
                // Rank k is entry k: template k % 64, so every template
                // is equally represented at every popularity level and
                // the miss stream's cost mix does not depend on the seed.
                o.entry = (*zipf)(stream);
                o.job = next_job++;
                o.t0 = nowNs();
                ++sent;
                ++rec->attempted;
                const CatalogJob& job = catalog->jobs[o.entry];
                try {
                    serve::WireRequest request;
                    if (traced) {
                        o.root = tracer->open("job", o.job);
                        request = decodeTraced(job.line, *tracer, o.job);
                    } else {
                        request = serve::parseRequest(job.line);
                    }
                    o.id = request.id;
                    o.submitted = nowNs();
                    scheduler->submit(
                        std::move(request.spec),
                        [&, slot](serve::JobResult result) {
                            const int64_t t = nowNs();
                            std::lock_guard<std::mutex> lock(mutex);
                            done.push_back({slot, std::move(result), t});
                            cv.notify_one();
                        });
                    // Only this thread records spans, so the root leaves
                    // the stack once the job is handed over.
                    if (traced) tracer->suspend();
                    ++in_flight;
                } catch (const std::exception& e) {
                    ++rec->failed;
                    noteFailure(rec, job.name + " (" + job.id +
                                         ") refused: " + e.what());
                    if (o.root >= 0) {
                        // Decode or submit threw with the root on the stack.
                        tracer->closeThrough(o.root);
                        o.root = -1;
                    }
                    free_slots.push_back(slot);
                }
            }
            if (in_flight == 0) break;

            Completion c;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return !done.empty(); });
                c = std::move(done.front());
                done.pop_front();
            }
            --in_flight;
            Outstanding& o = slots[size_t(c.slot)];
            const CatalogJob& job = catalog->jobs[o.entry];
            std::string response;
            if (traced) {
                tracer->record("serve.wait", o.job, o.root, o.submitted,
                               c.done);
                tracer->record("serve.client_wait", o.job, o.root, c.done,
                               nowNs());
                tracer->resume(o.root);
                response = tracer->span("serve.encode", o.job, [&] {
                    return serve::encodeResult(o.id, c.result);
                });
                tracer->close(o.root);
                o.root = -1;
            } else {
                response = serve::encodeResult(o.id, c.result);
            }
            const int64_t t_out = nowNs();
            const double ms = msBetween(o.t0, t_out);
            free_slots.push_back(c.slot);

            if (c.result.status != serve::JobStatus::kOk) {
                ++rec->failed;
                noteFailure(rec, job.name + " (" + job.id + "): " +
                                     c.result.error_message);
                continue;
            }
            if (!first[o.entry]) unchecked[o.entry] = c.result;
            checkReplay(rec, job, c.result, first[o.entry],
                        c.result.cache_hit ? "cache hit" : "re-execution");
            if (!record) continue;
            const bool hit = c.result.cache_hit;
            if (!hit) stats.shots += job.shots;
            stats.latency_ms.push_back(ms);
            if (!hit) stats.missed.push_back(o.entry);
            if (sched_samples) {
                (hit ? rec->hit_ms : rec->miss_ms).push_back(ms);
                rec->queue_ms.push_back(c.result.queue_ms);
                if (!hit) rec->exec_ms.push_back(c.result.exec_ms);
            }
            if (traced) {
                rec->response_bytes.push_back(double(response.size()));
                if (!hit) noteExecuted(rec, c.result);
            }
        }
        return stats;
    }

    /** Check every first-seen result against its reference. */
    void
    checkFirstSeen()
    {
        for (size_t e = 0; e < unchecked.size(); ++e) {
            if (!unchecked[e]) continue;
            const CatalogJob& job = catalog->jobs[e];
            std::string why;
            if (!checkResult(job,
                             catalog->references[size_t(job.reference)],
                             *unchecked[e], &why)) {
                ++rec->failed;
                noteFailure(rec, why);
            }
            unchecked[e].reset();
        }
    }
};

} // namespace

void
runServiceWorkload(uint64_t seed, double seconds, bool trace,
                   RunRecord* rec, Tracer* tracer)
{
    // Set-up: catalog, exact references, and a scheduler whose cache is
    // warmed by the same request stream.
    const int64_t t0 = nowNs();
    const Catalog catalog = buildCatalog("service_zipf", seed);
    serve::SchedulerOptions options;
    options.workers = kServiceWorkers;
    options.cache_capacity = kServiceCache;
    const auto scheduler = std::make_unique<serve::Scheduler>(options);
    const Zipf zipf(catalog.jobs.size(), kServiceZipfS);
    ServiceClient client;
    client.catalog = &catalog;
    client.scheduler = scheduler.get();
    client.rec = rec;
    client.tracer = tracer;
    client.zipf = &zipf;
    client.stream = seed ^ 0x7a697066ULL;
    client.first.resize(catalog.jobs.size());
    client.unchecked.resize(catalog.jobs.size());
    client.run(kServiceWarmup, 1e9, false, false);
    rec->setup_s = double(nowNs() - t0) * 1e-9;
    client.checkFirstSeen();
    noteCatalogCost(rec, catalog);

    const serve::CacheStats before = scheduler->cacheStats();
    const double cpu0 = processCpuSeconds();
    const int64_t start = nowNs();
    const WindowStats untraced =
        client.run(1L << 60, trace ? seconds / 2 : seconds, false, true);
    rec->wall_s = double(nowNs() - start) * 1e-9;
    rec->cpu_s = processCpuSeconds() - cpu0;
    const serve::CacheStats after = scheduler->cacheStats();
    rec->cache_lookups = long(after.hits + after.misses) -
                         long(before.hits + before.misses);
    rec->cache_hit_ratio =
        rec->cache_lookups > 0
            ? double(after.hits - before.hits) / double(rec->cache_lookups)
            : 0.0;
    rec->cache_evictions = long(after.evictions - before.evictions);
    rec->window_jobs = long(untraced.latency_ms.size());
    rec->window_shots = untraced.shots;
    rec->job_ms = untraced.latency_ms;
    if (!trace) {
        client.checkFirstSeen();
        return;
    }
    rec->untraced_jobs_per_s = double(rec->window_jobs) / rec->wall_s;

    const int64_t traced_lo = client.next_job;
    const int64_t traced_start = nowNs();
    const WindowStats traced = client.run(1L << 60, seconds / 2, true, true);
    rec->traced_jobs_per_s = double(traced.latency_ms.size()) /
                             (double(nowNs() - traced_start) * 1e-9);
    rec->split = reduceSpans(tracer->spans(), traced_lo, client.next_job);
    client.checkFirstSeen();

    // The scheduler runs executeJob on its workers, out of the client's
    // reach; replay the window's distinct misses through the traced
    // layer split to attribute miss execution time by layer.
    std::vector<size_t> misses = traced.missed;
    std::sort(misses.begin(), misses.end());
    misses.erase(std::unique(misses.begin(), misses.end()), misses.end());
    if (misses.size() > kServiceReplays) misses.resize(kServiceReplays);
    int64_t replay_id = kReplayJobBase;
    for (size_t entry : misses) {
        const CatalogJob& job = catalog.jobs[entry];
        const int64_t id = replay_id++;
        ++rec->attempted;
        const int32_t root = tracer->open("job", id);
        try {
            const serve::WireRequest request =
                decodeTraced(job.line, *tracer, id);
            const serve::JobResult result =
                executeTraced(request.spec, *tracer, id);
            tracer->span("serve.encode", id, [&] {
                return serve::encodeResult(request.id, result);
            });
            tracer->close(root);
            checkReplay(rec, job, result, client.first[entry],
                        "traced replay");
        } catch (const std::exception& e) {
            tracer->closeThrough(root);
            ++rec->failed;
            noteFailure(rec, job.name + " traced replay: " + e.what());
        }
    }
    rec->replay_split = reduceSpans(tracer->spans(), kReplayJobBase,
                                    replay_id);
}

} // namespace layerbench
