/**
 * @file
 * qa_loadgen: deterministic load generator for qassertd / qa_router.
 *
 * Spawns the target (--target-cmd, default a plain qassertd) as a child
 * on a pipe pair, drives it with NDJSON run requests drawn from a
 * catalog of distinct circuits, and measures end-to-end latency and
 * throughput from the client's side of the wire — the number a fleet
 * operator actually sees.
 *
 * Workload model:
 *  - **Zipf circuit popularity** (s = 1.1 over --circuits M): a few
 *    hot circuits dominate, the tail is cold — the distribution that
 *    makes result-cache affinity matter, since only a shard that keeps
 *    seeing the same hot key benefits from its cache.
 *  - **Closed loop** (--mode closed --concurrency C): C requests in
 *    flight at all times; the next request leaves when a response
 *    arrives. Measures sustainable throughput.
 *  - **Open loop** (--mode open --rate R --burst B): bursts of B
 *    requests every B/R seconds on a fixed schedule, regardless of
 *    responses — the arrival process does not slow down because the
 *    server is struggling, so queueing shows up in the tail latencies
 *    instead of being hidden by backpressure.
 *  - **Chaos** (--kill-shard K --kill-after N): after the N-th
 *    response, SIGKILL shard K of a qa_router target (pid discovered
 *    via fleet_status) and keep loading through the failover.
 *
 * Exit code is non-zero when any request went unanswered (lost) or the
 * wire saw duplicate response ids — the loadgen doubles as the fleet's
 * exactly-once checker. Results are emitted as one JSON line on stdout.
 *
 * --digest adds a "digest" field: a 128-bit order-independent hash of
 * every response's *deterministic* payload (timing fields queue_ms /
 * exec_ms and the placement-dependent cache_hit flag are stripped, the
 * rest is hashed keyed by the request id, and the per-response hashes
 * are XOR-combined so arrival order does not matter). Two runs with the
 * same seed against the same fleet must produce equal digests even when
 * one ran under qa_netchaos and the other did not — the bit-identity
 * check behind scripts/netfleet_smoke.sh.
 */
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "fleet/process.hpp"
#include "serve/json.hpp"
#include "serve/wire.hpp"

namespace
{

using namespace qa;
using SteadyClock = std::chrono::steady_clock;

uint64_t
splitmix64(uint64_t& state)
{
    state += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

int
parsePositiveArg(const std::string& flag, const char* value)
{
    if (value == nullptr) {
        std::cerr << "qa_loadgen: " << flag << " needs a value\n";
        std::exit(2);
    }
    const int parsed = std::atoi(value);
    if (parsed <= 0) {
        std::cerr << "qa_loadgen: " << flag << " must be positive, got '"
                  << value << "'\n";
        std::exit(2);
    }
    return parsed;
}

std::vector<std::string>
splitCommand(const std::string& command)
{
    std::vector<std::string> argv;
    std::istringstream in(command);
    std::string token;
    while (in >> token) argv.push_back(token);
    return argv;
}

/**
 * Catalog circuit i: a GHZ chain whose width cycles 2..9 and whose
 * tail of X gates grows with i/8 — every index yields a structurally
 * distinct circuit (distinct jobKey), all of them Clifford so the
 * stabilizer fast path keeps per-job cost low and the harness measures
 * serving, not simulation.
 */
std::string
catalogQasm(size_t i)
{
    const size_t width = 2 + (i % 8);
    std::ostringstream qasm;
    qasm << "OPENQASM 2.0;\nqreg q[" << width << "];\ncreg c[" << width
         << "];\nh q[0];\n";
    for (size_t k = 1; k < width; ++k) {
        qasm << "cx q[0],q[" << k << "];\n";
    }
    for (size_t k = 0; k < i / 8; ++k) {
        qasm << "x q[" << (k % width) << "];\n";
    }
    for (size_t k = 0; k < width; ++k) {
        qasm << "measure q[" << k << "] -> c[" << k << "];\n";
    }
    return qasm.str();
}

/** Zipf exponent of the circuit popularity (reported as "zipf"). */
constexpr double kZipfS = 1.1;

/** Zipf(s) sampler over [0, n) via inverse CDF on a prefix-sum table. */
class ZipfSampler
{
  public:
    ZipfSampler(size_t n, double s)
    {
        cdf_.reserve(n);
        double total = 0.0;
        for (size_t i = 0; i < n; ++i) {
            total += 1.0 / std::pow(double(i + 1), s);
            cdf_.push_back(total);
        }
        for (double& c : cdf_) c /= total;
    }

    size_t
    sample(uint64_t& rng) const
    {
        const double u =
            double(splitmix64(rng) >> 11) * (1.0 / 9007199254740992.0);
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return size_t(it - cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

double
percentile(std::vector<double>& sorted, double q)
{
    if (sorted.empty()) return 0.0;
    const size_t idx = std::min(sorted.size() - 1,
                                size_t(q * double(sorted.size())));
    return sorted[idx];
}

/**
 * Drop one "key":value pair (and its separating comma) from a JSON
 * object rendered on one line. Value-shape agnostic for scalar values
 * (number, bool, string without embedded commas/braces) — which covers
 * every volatile field the wire emits. No-op when the key is absent.
 */
std::string
stripField(const std::string& json, const std::string& key)
{
    const std::string needle = "\"" + key + "\":";
    const size_t at = json.find(needle);
    if (at == std::string::npos) return json;
    size_t end = at + needle.size();
    while (end < json.size() && json[end] != ',' && json[end] != '}') {
        ++end;
    }
    size_t begin = at;
    if (end < json.size() && json[end] == ',') {
        ++end; // drop the trailing comma ...
    } else if (begin > 0 && json[begin - 1] == ',') {
        --begin; // ... or the leading one for a last field
    }
    return json.substr(0, begin) + json.substr(end);
}

/**
 * Hash of one response's deterministic payload, keyed by the request
 * id so digests detect id/payload cross-wiring, not just multiset
 * equality of payloads.
 */
Hash128
responseDigest(const std::string& id, const std::string& line)
{
    std::string cleaned = stripField(line, "queue_ms");
    cleaned = stripField(cleaned, "exec_ms");
    cleaned = stripField(cleaned, "cache_hit");
    HashStream hs(0xd16357ULL);
    hs.str(id).str(cleaned);
    return hs.digest();
}

} // namespace

int
main(int argc, char** argv)
{
    std::string target_cmd = "qassertd";
    std::string mode = "closed";
    std::string label;
    size_t jobs = 200;
    size_t circuits = 32;
    int concurrency = 8;
    double rate = 100.0;
    int burst = 4;
    int shots = 256;
    uint64_t seed = 0x10adULL;
    int kill_shard = -1;
    size_t kill_after = 0;
    double drain_wait_ms = 60000.0;
    bool digest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--target-cmd") {
            if (value == nullptr) return 2;
            target_cmd = value;
            ++i;
        } else if (arg == "--mode") {
            if (value == nullptr) return 2;
            mode = value;
            ++i;
        } else if (arg == "--label") {
            if (value == nullptr) return 2;
            label = value;
            ++i;
        } else if (arg == "--jobs") {
            jobs = size_t(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--circuits") {
            circuits = size_t(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--concurrency") {
            concurrency = parsePositiveArg(arg, value);
            ++i;
        } else if (arg == "--rate") {
            rate = double(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--burst") {
            burst = parsePositiveArg(arg, value);
            ++i;
        } else if (arg == "--shots") {
            shots = parsePositiveArg(arg, value);
            ++i;
        } else if (arg == "--seed") {
            if (value == nullptr) return 2;
            seed = uint64_t(std::atoll(value));
            ++i;
        } else if (arg == "--kill-shard") {
            if (value == nullptr) return 2;
            kill_shard = std::atoi(value);
            ++i;
        } else if (arg == "--kill-after") {
            kill_after = size_t(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--drain-wait-ms") {
            drain_wait_ms = double(parsePositiveArg(arg, value));
            ++i;
        } else if (arg == "--digest") {
            digest = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cerr
                << "usage: qa_loadgen [--target-cmd CMD] [--mode "
                   "closed|open]\n"
                   "                  [--jobs N] [--circuits M] "
                   "[--shots N]\n"
                   "                  [--concurrency C | --rate R "
                   "--burst B]\n"
                   "                  [--kill-shard K --kill-after N]"
                   " [--digest]\n"
                   "                  [--label S] [--seed N]\n";
            return 0;
        } else {
            std::cerr << "qa_loadgen: unknown option '" << arg << "'\n";
            return 2;
        }
    }
    if (mode != "closed" && mode != "open") {
        std::cerr << "qa_loadgen: --mode must be closed or open\n";
        return 2;
    }

    std::signal(SIGPIPE, SIG_IGN);

    // Pre-build the request catalog: deterministic, and out of the
    // timed path.
    const ZipfSampler sampler(circuits, kZipfS);
    std::vector<std::string> catalog(circuits);
    for (size_t i = 0; i < circuits; ++i) {
        catalog[i] = "\"qasm\":\"" + serve::jsonEscape(catalogQasm(i)) +
                     "\",\"shots\":" + std::to_string(shots) +
                     ",\"seed\":" + std::to_string(1000 + i) +
                     ",\"assert_clbits\":[[0]]";
    }
    uint64_t rng = seed;
    std::vector<size_t> pick(jobs);
    for (size_t i = 0; i < jobs; ++i) pick[i] = sampler.sample(rng);

    fleet::ChildProcess target(splitCommand(target_cmd));

    std::mutex mutex;
    std::condition_variable cv;
    size_t answered = 0;
    size_t ok = 0;
    size_t errors = 0;
    size_t duplicates = 0;
    std::vector<pid_t> shard_pids;
    std::vector<SteadyClock::time_point> sent_at(jobs);
    std::vector<double> latency_ms(jobs, -1.0);
    Hash128 combined_digest; // XOR-combined: order-independent.

    std::thread reader([&] {
        fleet::LineReader lines(target.readFd());
        std::string line;
        while (lines.next(&line) != fleet::LineReader::Status::kEof) {
            std::string id;
            if (!serve::peekResponseId(line, &id)) continue;
            if (id == "!status") {
                // fleet_status reply: harvest shard pids for the chaos
                // kill.
                try {
                    const serve::JsonValue parsed =
                        serve::JsonValue::parse(line);
                    const serve::JsonValue* fleet = parsed.find("fleet");
                    const serve::JsonValue* shard =
                        fleet ? fleet->find("shard") : nullptr;
                    std::lock_guard<std::mutex> lock(mutex);
                    shard_pids.clear();
                    if (shard != nullptr) {
                        for (const serve::JsonValue& s : shard->asArray()) {
                            shard_pids.push_back(
                                pid_t(s.numberOr("pid", -1.0)));
                        }
                    }
                } catch (const UserError&) {}
                cv.notify_all();
                continue;
            }
            if (id.size() < 2 || id[0] != 'j') continue;
            const size_t index = size_t(std::atoll(id.c_str() + 1));
            if (index >= jobs) continue;
            const bool is_ok =
                line.find("\"status\":\"ok\"") != std::string::npos;
            std::lock_guard<std::mutex> lock(mutex);
            if (latency_ms[index] >= 0.0) {
                duplicates++; // exactly-once violation; fail at exit
                continue;
            }
            latency_ms[index] =
                std::chrono::duration<double, std::milli>(
                    SteadyClock::now() - sent_at[index])
                    .count();
            if (digest) {
                const Hash128 h = responseDigest(id, line);
                combined_digest.hi ^= h.hi;
                combined_digest.lo ^= h.lo;
            }
            answered++;
            if (is_ok) ok++;
            else errors++;
            cv.notify_all();
        }
        cv.notify_all();
    });

    if (kill_shard >= 0) {
        // Discover shard pids up front; the reply also proves the
        // router is up before the clock starts.
        target.writeLine("{\"op\":\"fleet_status\",\"id\":\"!status\"}");
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait_for(lock, std::chrono::seconds(10),
                    [&] { return !shard_pids.empty(); });
        if (size_t(kill_shard) >= shard_pids.size()) {
            std::cerr << "qa_loadgen: --kill-shard " << kill_shard
                      << " out of range (fleet has " << shard_pids.size()
                      << " shard(s))\n";
            return 2;
        }
    }

    const SteadyClock::time_point t0 = SteadyClock::now();
    bool killed = false;
    auto maybeKill = [&](size_t answered_now) {
        if (kill_shard < 0 || killed || answered_now < kill_after) return;
        killed = true;
        const pid_t pid = shard_pids[size_t(kill_shard)];
        std::cerr << "qa_loadgen: SIGKILL shard " << kill_shard << " (pid "
                  << pid << ") after " << answered_now << " responses\n";
        ::kill(pid, SIGKILL);
    };

    if (mode == "closed") {
        for (size_t i = 0; i < jobs; ++i) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                // Outstanding = sent (i) - answered; keep it below C.
                cv.wait(lock, [&] {
                    return i - answered < size_t(concurrency);
                });
                maybeKill(answered);
                sent_at[i] = SteadyClock::now();
            }
            target.writeLine("{\"id\":\"j" + std::to_string(i) + "\"," +
                             catalog[pick[i]] + "}");
        }
    } else {
        const double gap_ms = double(burst) / rate * 1000.0;
        SteadyClock::time_point next = t0;
        size_t i = 0;
        while (i < jobs) {
            std::this_thread::sleep_until(next);
            next += std::chrono::duration_cast<SteadyClock::duration>(
                std::chrono::duration<double, std::milli>(gap_ms));
            for (int b = 0; b < burst && i < jobs; ++b, ++i) {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    maybeKill(answered);
                    sent_at[i] = SteadyClock::now();
                }
                target.writeLine("{\"id\":\"j" + std::to_string(i) +
                                 "\"," + catalog[pick[i]] + "}");
            }
        }
    }

    // Drain: all responses in, bounded.
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait_for(
            lock,
            std::chrono::duration_cast<SteadyClock::duration>(
                std::chrono::duration<double, std::milli>(drain_wait_ms)),
            [&] { return answered >= jobs; });
    }
    const double duration_ms =
        std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
            .count();

    target.writeLine("{\"op\":\"shutdown\"}");
    target.closeStdin();
    reader.join();
    target.forceReap();

    size_t lost = 0;
    std::vector<double> sorted;
    sorted.reserve(jobs);
    double sum = 0.0;
    for (size_t i = 0; i < jobs; ++i) {
        if (latency_ms[i] < 0.0) {
            lost++;
            continue;
        }
        sorted.push_back(latency_ms[i]);
        sum += latency_ms[i];
    }
    std::sort(sorted.begin(), sorted.end());

    std::ostringstream result;
    result << "{\"label\":\"" << serve::jsonEscape(label)
           << "\",\"mode\":\"" << mode << "\",\"jobs\":" << jobs
           << ",\"circuits\":" << circuits << ",\"zipf\":"
           << serve::jsonNumber(kZipfS) << ",\"shots\":" << shots
           << ",\"concurrency\":" << concurrency
           << ",\"rate\":" << serve::jsonNumber(rate)
           << ",\"burst\":" << burst << ",\"answered\":" << answered
           << ",\"ok\":" << ok << ",\"errors\":" << errors
           << ",\"lost\":" << lost << ",\"duplicates\":" << duplicates
           << ",\"killed_shard\":" << kill_shard
           << ",\"duration_ms\":" << serve::jsonNumber(duration_ms)
           << ",\"jobs_per_sec\":"
           << serve::jsonNumber(duration_ms > 0.0
                                    ? double(answered) * 1000.0 /
                                          duration_ms
                                    : 0.0)
           << ",\"latency_ms\":{\"mean\":"
           << serve::jsonNumber(sorted.empty() ? 0.0
                                               : sum / double(sorted.size()))
           << ",\"p50\":" << serve::jsonNumber(percentile(sorted, 0.50))
           << ",\"p90\":" << serve::jsonNumber(percentile(sorted, 0.90))
           << ",\"p99\":" << serve::jsonNumber(percentile(sorted, 0.99))
           << ",\"p999\":" << serve::jsonNumber(percentile(sorted, 0.999))
           << ",\"max\":"
           << serve::jsonNumber(sorted.empty() ? 0.0 : sorted.back())
           << "}";
    if (digest) {
        result << ",\"digest\":\"" << combined_digest.str() << "\"";
    }
    result << "}";
    std::cout << result.str() << "\n";

    if (lost > 0 || duplicates > 0) {
        std::cerr << "qa_loadgen: FAILED — " << lost << " lost, "
                  << duplicates << " duplicate response(s)\n";
        return 1;
    }
    std::cerr << "qa_loadgen: all " << jobs
              << " jobs answered exactly once\n";
    return 0;
}
