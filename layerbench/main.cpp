/**
 * @file
 * qa_layerbench: run one workload, check every result, and print every
 * metric by name with its unit. The last line of standard output is one
 * JSON object {"correct", "attempted", "failed", "metrics"}; end-to-end
 * metrics with --trace 0, per-layer metrics with --trace 1. Exits 1
 * when any correctness check failed, 2 on a usage error.
 *
 *   qa_layerbench --workload many_shots --seed 7 --seconds 10 --trace 0
 *                 [--trace-out spans.ndjson]
 *
 * With --trace 0 a "# samples" line before the result carries every job
 * latency and the window's completed jobs, simulated shots and wall
 * time, so a caller can pool several processes.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "sim/kernels.hpp"

#ifndef LAYERBENCH_BUILD_TYPE
#define LAYERBENCH_BUILD_TYPE ""
#endif

namespace
{

using namespace layerbench;

/** Nearest-rank percentile (q in [0, 1]) of unsorted samples. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = size_t(std::ceil(q * double(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
mean(const std::vector<double>& v)
{
    if (v.empty()) return 0.0;
    double total = 0.0;
    for (double x : v) total += x;
    return total / double(v.size());
}

std::string
number(double v)
{
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; ///< base / sample count, report only
};

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string trace_out;
};

bool
parseArgs(int argc, char** argv, Options* opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            opt->workload = value;
        } else if (key == "--seed") {
            opt->seed = std::stoull(value);
        } else if (key == "--seconds") {
            opt->seconds = std::stod(value);
        } else if (key == "--trace") {
            opt->trace = std::stoi(value);
        } else if (key == "--trace-out") {
            opt->trace_out = value;
        } else {
            return false;
        }
    }
    return (argc % 2) == 1 && knownWorkload(opt->workload) &&
           opt->seconds > 0 &&
           (opt->trace == 0 || opt->trace == 1);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::vector<Metric>
endToEnd(const RunRecord& rec)
{
    const double n = double(rec.job_ms.size());
    // Highest percentile with at least ten samples beyond it.
    const double tail_q = n > 10 ? 1.0 - 10.0 / n : 0.5;
    const std::string samples = std::to_string(rec.job_ms.size()) +
                                " jobs; p" + number(100.0 * tail_q) +
                                " = " +
                                number(percentile(rec.job_ms, tail_q)) +
                                " ms with 10 samples beyond";
    const std::string window = std::to_string(rec.window_jobs) +
                               " jobs completed in " + number(rec.wall_s) +
                               " s of wall time";
    return {
        {"setup_s", rec.setup_s, "s", "one set-up"},
        {"jobs_per_s", rec.wall_s > 0 ? rec.window_jobs / rec.wall_s : 0.0,
         "1/s", window},
        {"shots_per_s",
         rec.wall_s > 0 ? rec.window_shots / rec.wall_s : 0.0, "1/s",
         std::to_string(rec.window_shots) + " simulated shots; " + window},
        {"job_ms_p50", percentile(rec.job_ms, 0.5), "ms", samples},
        {"job_ms_p90", percentile(rec.job_ms, 0.9), "ms", samples},
        {"ok_frac",
         rec.attempted > 0
             ? 1.0 - double(rec.failed) / double(rec.attempted)
             : 0.0,
         "frac",
         std::to_string(rec.failed) + " failed of " +
             std::to_string(rec.attempted) + " attempted"},
        {"peak_rss_mb", peakRssMb(), "MB", "getrusage ru_maxrss"},
    };
}

/** A layer's per-job self time: from the traced window, else replays. */
const std::vector<double>*
layerSamples(const RunRecord& rec, const std::string& span)
{
    for (const LayerSplit* split : {&rec.split, &rec.replay_split}) {
        const auto it = split->self_ns.find(span);
        if (it != split->self_ns.end()) return &it->second;
    }
    return nullptr;
}

std::vector<Metric>
perLayer(const RunRecord& rec)
{
    std::vector<Metric> out;
    auto duration = [&](const std::string& name, const std::string& span,
                        double scale, const std::string& unit) {
        const std::vector<double>* samples = layerSamples(rec, span);
        std::vector<double> v;
        if (samples != nullptr) {
            for (double ns : *samples) v.push_back(ns * scale);
        }
        const std::string note =
            samples == nullptr
                ? "layer not on this workload's path"
                : std::to_string(v.size()) + " jobs";
        out.push_back({name, percentile(v, 0.5), unit, note});
        out.push_back({name + "_p90", percentile(v, 0.9), unit, note});
    };
    const double shot_scale = 1.0 / double(rec.shots_per_job);
    const std::string catalog =
        "summed over " + std::to_string(rec.catalog_jobs) + " catalog jobs";

    duration("circuit.parse_ms", "circuit.parse", 1e-6, "ms");
    out.push_back({"circuit.cx", double(rec.catalog_cost.cx), "count",
                   catalog});
    out.push_back({"circuit.sq_gates", double(rec.catalog_cost.sq_gates),
                   "count", catalog});
    out.push_back({"circuit.ancillas", double(rec.catalog_cost.ancillas),
                   "count", catalog});
    out.push_back({"circuit.measures", double(rec.catalog_cost.measures),
                   "count", catalog});

    duration("serve.decode_ms", "serve.decode", 1e-6, "ms");
    duration("serve.encode_ms", "serve.encode", 1e-6, "ms");
    out.push_back({"serve.response_bytes", mean(rec.response_bytes), "B",
                   "mean of " + std::to_string(rec.response_bytes.size()) +
                       " responses"});

    duration("acomp.compile_ms", "acomp.compile", 1e-6, "ms");
    const std::string compiled =
        "mean per compiled job, " + std::to_string(rec.acomp_slots.size()) +
        " jobs";
    out.push_back({"acomp.slots", mean(rec.acomp_slots), "count", compiled});
    out.push_back(
        {"acomp.variants", mean(rec.acomp_variants), "count", compiled});

    duration("backend.route_ms", "backend.route", 1e-6, "ms");
    out.push_back({"backend.fusion_ratio",
                   rec.fusion_gates_in > 0
                       ? double(rec.fusion_gates_out) /
                             double(rec.fusion_gates_in)
                       : 1.0,
                   "ratio",
                   std::to_string(rec.fusion_gates_out) +
                       " fused gates of " +
                       std::to_string(rec.fusion_gates_in)});
    for (const char* kind :
         {"statevector", "density_matrix", "stabilizer", "mps"}) {
        const auto it = rec.jobs_by_kind.find(kind);
        out.push_back({std::string("backend.jobs_") + kind,
                       it == rec.jobs_by_kind.end() ? 0.0
                                                    : double(it->second),
                       "count",
                       "of " + std::to_string(rec.executed_jobs) +
                           " executed jobs in the traced window"});
    }

    duration("sim.prepare_ms", "sim.prepare", 1e-6, "ms");
    duration("stab.prepare_ms", "stab.prepare", 1e-6, "ms");
    duration("mps.prepare_ms", "mps.prepare", 1e-6, "ms");
    duration("sim.shot_ns", "sim.shots", shot_scale, "ns");
    duration("stab.shot_ns", "stab.shots", shot_scale, "ns");
    duration("mps.shot_ns", "mps.shots", shot_scale, "ns");

    duration("core.postselect_ms", "core.postselect", 1e-6, "ms");
    out.push_back({"core.distinct_outcomes", mean(rec.distinct_outcomes),
                   "count",
                   "mean per executed job, " +
                       std::to_string(rec.distinct_outcomes.size()) +
                       " jobs"});

    const std::string sched = std::to_string(rec.queue_ms.size()) +
                              " responses (untraced half)";
    out.push_back({"serve.queue_ms", percentile(rec.queue_ms, 0.5), "ms",
                   sched});
    out.push_back({"serve.queue_ms_p90", percentile(rec.queue_ms, 0.9), "ms",
                   sched});
    out.push_back({"serve.exec_ms", percentile(rec.exec_ms, 0.5), "ms",
                   std::to_string(rec.exec_ms.size()) + " executions"});
    out.push_back({"serve.exec_ms_p90", percentile(rec.exec_ms, 0.9), "ms",
                   std::to_string(rec.exec_ms.size()) + " executions"});
    out.push_back({"serve.cache_hit_ratio", rec.cache_hit_ratio, "ratio",
                   "of " + std::to_string(rec.cache_lookups) + " lookups"});
    out.push_back({"serve.cache_evictions", double(rec.cache_evictions),
                   "count",
                   "over " + std::to_string(rec.cache_lookups) + " lookups"});
    out.push_back({"serve.hit_ms_p50", percentile(rec.hit_ms, 0.5), "ms",
                   std::to_string(rec.hit_ms.size()) + " cache hits"});
    out.push_back({"serve.miss_ms_p50", percentile(rec.miss_ms, 0.5), "ms",
                   std::to_string(rec.miss_ms.size()) + " executions"});

    out.push_back({"mps.truncation_error", rec.max_truncation_error,
                   "weight", "max over executed jobs"});
    out.push_back({"host.parallelism",
                   rec.wall_s > 0 ? rec.cpu_s / rec.wall_s : 0.0, "ratio",
                   "process CPU time / wall time, untraced window"});
    out.push_back({"trace.overhead_frac",
                   rec.traced_jobs_per_s > 0
                       ? rec.untraced_jobs_per_s / rec.traced_jobs_per_s -
                             1.0
                       : 0.0,
                   "frac", "untraced vs traced jobs/s"});
    out.push_back({"trace.unattributed_frac",
                   percentile(rec.split.unattributed, 0.9), "frac",
                   "p90 over " +
                       std::to_string(rec.split.unattributed.size()) +
                       " traced jobs of wall time outside layer spans"});
    return out;
}

std::string
hostRecord(const RunRecord& rec)
{
    std::ostringstream oss;
    const std::string build = LAYERBENCH_BUILD_TYPE;
    oss << "{\"nproc\":" << std::thread::hardware_concurrency()
        << ",\"host.parallelism\":"
        << number(rec.wall_s > 0 ? rec.cpu_s / rec.wall_s : 0.0)
        << ",\"avx2_dispatch\":"
        << (qa::simdAvailable() ? "true" : "false")
        << ",\"avx2_compiled\":"
        << (qa::simdCompiledIn() ? "true" : "false")
        << ",\"avx512_cpu\":"
        << (__builtin_cpu_supports("avx512f") ? "true" : "false")
        << ",\"avx512_dispatch\":false"
        << ",\"build_type\":\"" << build << "\"}";
    return oss.str();
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    bool parsed = false;
    try {
        parsed = parseArgs(argc, argv, &opt);
    } catch (const std::exception&) {
        // A malformed number: fall through to the usage message.
    }
    if (!parsed) {
        std::cerr << "usage: qa_layerbench --workload "
                     "service_zipf|many_shots|deep_circuits --seed N "
                     "--seconds S --trace 0|1 [--trace-out PATH]\n";
        return 2;
    }
    const std::string build = LAYERBENCH_BUILD_TYPE;
    if (build != "Release" && build != "RelWithDebInfo") {
        std::cerr << "warning: build type '" << build
                  << "' is not optimised; timings are not comparable\n";
    }

    RunRecord rec;
    Tracer tracer(opt.trace == 1);
    if (opt.workload == "service_zipf") {
        runServiceWorkload(opt.seed, opt.seconds, opt.trace == 1, &rec,
                           &tracer);
    } else {
        runLibraryWorkload(opt.workload, opt.seed, opt.seconds,
                           opt.trace == 1, &rec, &tracer);
    }
    if (opt.trace == 1) {
        // A traced job whose spans do not account for its wall time fails.
        for (const LayerSplit* split : {&rec.split, &rec.replay_split}) {
            if (split->inconsistent == 0) continue;
            rec.failed += split->inconsistent;
            rec.failures.push_back(
                std::to_string(split->inconsistent) + " traced jobs" +
                (split == &rec.split ? "" : " (miss replays)") +
                " with self times not accounting for their wall time");
        }
    }
    if (opt.trace == 1 && !opt.trace_out.empty() &&
        !tracer.writeNdjson(opt.trace_out)) {
        std::cerr << "warning: could not write " << opt.trace_out << "\n";
    }

    const std::vector<Metric> metrics =
        opt.trace == 1 ? perLayer(rec) : endToEnd(rec);
    std::cout << "# workload " << opt.workload << " seed " << opt.seed
              << " seconds " << opt.seconds << " trace " << opt.trace
              << "\n# host " << hostRecord(rec) << "\n";
    for (const std::string& why : rec.failures) {
        std::cout << "# FAILED " << why << "\n";
    }
    if (opt.trace == 1) {
        std::cout << "# trace: " << rec.split.wall_ns.size()
                  << " traced jobs, " << rec.split.inconsistent
                  << " with self times not accounting for wall time, "
                  << "max unattributed share "
                  << number(percentile(rec.split.unattributed, 1.0)) << "; "
                  << rec.replay_split.wall_ns.size()
                  << " traced miss replays, "
                  << rec.replay_split.inconsistent
                  << " not accounted for, max unattributed share "
                  << number(percentile(rec.replay_split.unattributed, 1.0))
                  << "\n";
        // Each layer's share of all traced job time (self times).
        for (const LayerSplit* split : {&rec.split, &rec.replay_split}) {
            double wall = 0.0;
            for (double ns : split->wall_ns) wall += ns;
            for (const auto& [layer, self] : split->self_ns) {
                double total = 0.0;
                for (double ns : self) total += ns;
                std::cout << "# share "
                          << (split == &rec.split ? "" : "replay ") << layer
                          << " " << number(wall > 0 ? total / wall : 0.0)
                          << "\n";
            }
        }
    }
    for (const auto& [name, ms] : rec.job_ms_by_name) {
        std::cout << "# job " << name << ": " << ms.size()
                  << " runs, ms min " << number(percentile(ms, 0.0))
                  << " p25 " << number(percentile(ms, 0.25))
                  << " p50 " << number(percentile(ms, 0.5)) << " max "
                  << number(percentile(ms, 1.0)) << "\n";
    }
    for (const Metric& m : metrics) {
        std::cout << "# " << m.name << " = " << number(m.value) << " "
                  << m.unit << "  (" << m.note << ")\n";
    }

    if (opt.trace == 0) {
        std::cout << "# samples {\"job_ms\":[";
        for (size_t i = 0; i < rec.job_ms.size(); ++i) {
            std::cout << (i ? "," : "") << number(rec.job_ms[i]);
        }
        std::cout << "],\"jobs\":" << rec.window_jobs
                  << ",\"shots\":" << rec.window_shots
                  << ",\"window_s\":" << number(rec.wall_s) << "}\n";
    }

    const bool correct = rec.failed == 0 && rec.attempted > 0;
    std::cout << "{\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << rec.attempted
              << ",\"failed\":" << rec.failed << ",\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? "," : "") << "\"" << metrics[i].name
                  << "\":{\"value\":" << number(metrics[i].value)
                  << ",\"unit\":\"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}
