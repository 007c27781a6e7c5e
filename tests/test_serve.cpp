/**
 * @file
 * Tests for the assertion service layer (src/serve): structural job
 * hashing, the LRU result cache, scheduler determinism across worker
 * counts, backpressure/priority/deadline behaviour, the JSON parser,
 * and the qassertd wire protocol.
 */
#include <csignal>
#include <cstdio>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algos/states.hpp"
#include "circuit/hash.hpp"
#include "common/error.hpp"
#include "core/runner.hpp"
#include "linalg/states.hpp"
#include "resilience/journal.hpp"
#include "serve/replay.hpp"
#include "serve/cache.hpp"
#include "serve/job.hpp"
#include "serve/json.hpp"
#include "serve/listen.hpp"
#include "serve/metrics.hpp"
#include "serve/scheduler.hpp"
#include "serve/wire.hpp"
#include "synth/state_prep.hpp"

namespace qa
{
namespace serve
{
namespace
{

using namespace algos;

/** Bit-exact equality over everything a Counts carries. */
void
expectCountsIdentical(const Counts& a, const Counts& b)
{
    EXPECT_EQ(a.map, b.map);
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.truncated, b.truncated);
}

/** Bit-exact equality of two job results (modulo timing fields). */
void
expectResultsIdentical(const JobResult& a, const JobResult& b)
{
    EXPECT_EQ(int(a.status), int(b.status));
    expectCountsIdentical(a.counts, b.counts);
    expectCountsIdentical(a.program_counts, b.program_counts);
    EXPECT_EQ(a.slot_error_rate, b.slot_error_rate);
    EXPECT_EQ(a.pass_rate, b.pass_rate);
    EXPECT_EQ(a.truncated, b.truncated);
}

/** A small stochastic job: H on each qubit, slot over clbit 0. */
JobSpec
coinSpec(uint64_t seed, int shots = 256)
{
    JobSpec spec;
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.h(1);
    qc.measure(0, 0);
    qc.measure(1, 1);
    spec.circuit = qc;
    spec.assert_clbits = {{0}};
    spec.shots = shots;
    spec.seed = seed;
    return spec;
}

// ---------------------------------------------------------------------
// Structural hashing
// ---------------------------------------------------------------------

TEST(HashTest, CircuitHashIsStructural)
{
    EXPECT_EQ(circuitHash(ghzPrep(3)), circuitHash(ghzPrep(3)));
    EXPECT_NE(circuitHash(ghzPrep(3)), circuitHash(ghzPrep(4)));
    EXPECT_NE(circuitHash(ghzPrep(3)), circuitHash(wPrep(3)));

    QuantumCircuit a(1), b(1);
    a.rz(0, 0.5);
    b.rz(0, 0.5 + 1e-12);
    EXPECT_NE(circuitHash(a), circuitHash(b));

    // -0.0 and 0.0 encode the same rotation and must hash alike.
    QuantumCircuit pos(1), neg(1);
    pos.rz(0, 0.0);
    neg.rz(0, -0.0);
    EXPECT_EQ(circuitHash(pos), circuitHash(neg));

    EXPECT_EQ(circuitHash(a).str().size(), 32u);
}

TEST(HashTest, NoiseFingerprintIsSemantic)
{
    const NoiseModel none;
    EXPECT_EQ(none.fingerprint(), NoiseModel{}.fingerprint());
    EXPECT_NE(none.fingerprint(),
              NoiseModel::ibmqMelbourneLike().fingerprint());
    EXPECT_NE(NoiseModel::depolarizing(0.01, 0.05).fingerprint(),
              NoiseModel::depolarizing(0.02, 0.05).fingerprint());
    EXPECT_EQ(NoiseModel::depolarizing(0.01, 0.05).fingerprint(),
              NoiseModel::depolarizing(0.01, 0.05).fingerprint());
}

TEST(JobTest, KeyCoversResultInputsOnly)
{
    const JobSpec base = coinSpec(7);
    const Hash128 key = jobKey(base);

    // Execution knobs that cannot change the payload share the key.
    JobSpec threads = base;
    threads.num_threads = 8;
    threads.deadline_ms = 50.0;
    threads.priority = 9;
    threads.tag = "other";
    EXPECT_EQ(jobKey(threads), key);

    // Everything the result depends on separates it.
    JobSpec seed = base;
    seed.seed = 8;
    EXPECT_NE(jobKey(seed), key);
    JobSpec shots = base;
    shots.shots = 512;
    EXPECT_NE(jobKey(shots), key);
    JobSpec slots = base;
    slots.assert_clbits = {{1}};
    EXPECT_NE(jobKey(slots), key);
    JobSpec noisy = base;
    noisy.noise = NoiseModel::depolarizing(0.01, 0.02);
    EXPECT_NE(jobKey(noisy), key);
    JobSpec circuit = base;
    circuit.circuit.x(1);
    EXPECT_NE(jobKey(circuit), key);
}

// ---------------------------------------------------------------------
// executeJob
// ---------------------------------------------------------------------

TEST(JobTest, PlainPathPostSelectsOnSlots)
{
    // Deterministic failure: clbit 0 always reads 1.
    JobSpec fail;
    QuantumCircuit qc(2, 2);
    qc.x(0);
    qc.x(1);
    qc.measure(0, 0);
    qc.measure(1, 1);
    fail.circuit = qc;
    fail.assert_clbits = {{0}};
    fail.shots = 64;
    const JobResult failed = executeJob(fail);
    EXPECT_EQ(int(failed.status), int(JobStatus::kOk));
    EXPECT_EQ(failed.pass_rate, 0.0);
    ASSERT_EQ(failed.slot_error_rate.size(), 1u);
    EXPECT_EQ(failed.slot_error_rate[0], 1.0);
    EXPECT_TRUE(failed.program_counts.map.empty());
    EXPECT_EQ(failed.program_counts.shots, 0);

    // Stochastic slot: accepted histogram is the post-selection of the
    // raw one, restricted to the non-assert clbit.
    const JobResult coin = executeJob(coinSpec(11));
    int accepted = 0;
    for (const auto& [bits, n] : coin.counts.map) {
        if (bits[0] == '0') accepted += n;
    }
    EXPECT_GT(accepted, 0);
    EXPECT_EQ(coin.program_counts.shots, accepted);
    EXPECT_DOUBLE_EQ(coin.pass_rate,
                     double(accepted) / double(coin.counts.shots));
    for (const auto& [bits, n] : coin.program_counts.map) {
        EXPECT_EQ(bits.size(), 1u); // clbit 1 only
        (void)n;
    }
}

TEST(JobTest, PlainPathRejectsBadSpecs)
{
    JobSpec retry = coinSpec(1);
    retry.policy = AssertionPolicy::kRetry;
    try {
        executeJob(retry);
        FAIL() << "kRetry must be rejected on the plain path";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kPolicyUnsupported);
    }

    JobSpec out_of_range = coinSpec(1);
    out_of_range.assert_clbits = {{5}};
    try {
        executeJob(out_of_range);
        FAIL() << "out-of-range slot clbit must be rejected";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
    }
}

TEST(JobTest, ProgramPathMatchesDirectPolicyRun)
{
    auto program = std::make_shared<AssertedProgram>(ghzPrep(3));
    program->assertState({0, 1, 2}, StateSet::pure(ghzVector(3)),
                         AssertionDesign::kSwap);
    program->measureProgram();

    JobSpec spec;
    spec.program = program;
    spec.policy = AssertionPolicy::kDiscard;
    spec.shots = 200;
    spec.seed = 99;
    const JobResult via_job = executeJob(spec);

    SimOptions options;
    options.shots = 200;
    options.seed = 99;
    PolicyOptions popts;
    popts.policy = AssertionPolicy::kDiscard;
    const PolicyOutcome direct =
        runAssertedPolicy(*program, options, popts);

    expectCountsIdentical(via_job.counts, direct.raw);
    expectCountsIdentical(via_job.program_counts, direct.program_counts);
    EXPECT_EQ(via_job.slot_error_rate, direct.slot_error_rate);
    EXPECT_EQ(via_job.pass_rate, direct.pass_rate);
}

// ---------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------

JobResult
okResult(int marker)
{
    JobResult r;
    r.counts.shots = marker;
    r.counts.map["0"] = marker;
    r.program_counts = r.counts;
    return r;
}

Hash128
keyOf(uint64_t tag)
{
    HashStream s(tag);
    s.u64(tag);
    return s.digest();
}

TEST(CacheTest, LruEvictsColdestAndCountsEverything)
{
    ResultCache cache(2);
    EXPECT_FALSE(cache.get(keyOf(1)).has_value()); // miss
    EXPECT_TRUE(cache.put(keyOf(1), okResult(1)));
    EXPECT_TRUE(cache.put(keyOf(2), okResult(2)));

    // Refresh key 1, then insert key 3: key 2 is now the LRU victim.
    EXPECT_TRUE(cache.get(keyOf(1)).has_value());
    EXPECT_TRUE(cache.put(keyOf(3), okResult(3)));
    EXPECT_FALSE(cache.get(keyOf(2)).has_value());
    ASSERT_TRUE(cache.get(keyOf(1)).has_value());
    EXPECT_EQ(cache.get(keyOf(1))->counts.shots, 1);
    EXPECT_TRUE(cache.get(keyOf(3)).has_value());

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.capacity, 2u);
    EXPECT_EQ(stats.insertions, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_GT(stats.hitRate(), 0.5);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_FALSE(cache.get(keyOf(1)).has_value());
}

TEST(CacheTest, OnlyCleanResultsAreAdmitted)
{
    ResultCache cache(4);
    JobResult truncated = okResult(1);
    truncated.truncated = true;
    EXPECT_FALSE(cache.put(keyOf(1), truncated));

    JobResult failed = okResult(2);
    failed.status = JobStatus::kFailed;
    EXPECT_FALSE(cache.put(keyOf(2), failed));

    ResultCache disabled(0);
    EXPECT_FALSE(disabled.put(keyOf(3), okResult(3)));
    EXPECT_FALSE(disabled.get(keyOf(3)).has_value());
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

TEST(SchedulerTest, ResultsAreBitIdenticalAcrossWorkerCounts)
{
    // The acceptance bar: per-job payloads must not depend on pool
    // size, arrival order, or which worker drew the job.
    std::vector<JobSpec> specs;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        JobSpec spec = coinSpec(seed, 128 + int(seed) * 16);
        spec.use_cache = false;
        specs.push_back(spec);
    }

    std::vector<JobResult> reference;
    for (const JobSpec& spec : specs) {
        reference.push_back(executeJob(spec));
    }

    for (int workers : {1, 2, 8}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        SchedulerOptions options;
        options.workers = workers;
        Scheduler scheduler(options);
        std::vector<std::future<JobResult>> futures;
        for (const JobSpec& spec : specs) {
            futures.push_back(scheduler.submit(spec));
        }
        for (size_t i = 0; i < futures.size(); ++i) {
            SCOPED_TRACE("job " + std::to_string(i));
            const JobResult result = futures[i].get();
            EXPECT_FALSE(result.cache_hit);
            expectResultsIdentical(result, reference[i]);
        }
    }
}

TEST(SchedulerTest, CacheHitsAreBitIdenticalToUncachedExecution)
{
    SchedulerOptions options;
    options.workers = 4;
    options.cache_capacity = 64;
    Scheduler scheduler(options);

    const JobSpec spec = coinSpec(42);
    const JobResult reference = executeJob(spec);

    const JobResult first = scheduler.submit(spec).get();
    EXPECT_FALSE(first.cache_hit);
    expectResultsIdentical(first, reference);

    // Resubmit with different execution knobs: still the same key.
    JobSpec again = spec;
    again.num_threads = 2;
    again.priority = 3;
    const JobResult second = scheduler.submit(again).get();
    EXPECT_TRUE(second.cache_hit);
    expectResultsIdentical(second, reference);

    const CacheStats stats = scheduler.cacheStats();
    EXPECT_GE(stats.hits, 1u);
    EXPECT_GE(stats.insertions, 1u);
    const MetricsSnapshot metrics = scheduler.metrics();
    EXPECT_EQ(metrics.completed, 2u);
    EXPECT_GE(metrics.cache_hits, 1u);
    EXPECT_GT(metrics.cacheHitRate(), 0.0);
}

TEST(SchedulerTest, FullQueueRejectsWithTypedError)
{
    SchedulerOptions options;
    options.workers = 1;
    options.queue_capacity = 2;
    options.start_paused = true;
    Scheduler scheduler(options);

    std::vector<std::future<JobResult>> futures;
    futures.push_back(scheduler.submit(coinSpec(1, 32)));
    futures.push_back(scheduler.submit(coinSpec(2, 32)));
    try {
        scheduler.submit(coinSpec(3, 32));
        FAIL() << "third submission must hit admission control";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kQueueFull);
    }
    EXPECT_EQ(scheduler.metrics().rejected, 1u);
    EXPECT_EQ(scheduler.metrics().queue_depth, 2u);

    // The rejected job consumed no slot: the admitted ones still run.
    scheduler.resume();
    for (auto& f : futures) {
        EXPECT_EQ(int(f.get().status), int(JobStatus::kOk));
    }
    scheduler.drain();
    EXPECT_EQ(scheduler.metrics().completed, 2u);
}

TEST(SchedulerTest, HigherPriorityRunsFirstFifoWithin)
{
    SchedulerOptions options;
    options.workers = 1;
    options.start_paused = true;
    Scheduler scheduler(options);

    std::mutex order_mutex;
    std::vector<std::string> order;
    auto record = [&](JobResult result) {
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(result.tag);
    };
    auto submit = [&](const std::string& tag, int priority) {
        JobSpec spec = coinSpec(uint64_t(priority + 1), 16);
        spec.tag = tag;
        spec.priority = priority;
        scheduler.submit(std::move(spec), record);
    };
    submit("low-a", 0);
    submit("high", 5);
    submit("mid", 1);
    submit("low-b", 0);

    scheduler.resume();
    scheduler.drain();
    const std::vector<std::string> expected = {"high", "mid", "low-a",
                                               "low-b"};
    EXPECT_EQ(order, expected);
}

TEST(SchedulerTest, ElapsedDeadlineTruncatesWithoutStalling)
{
    SchedulerOptions options;
    options.workers = 2;
    Scheduler scheduler(options);

    // A mid-circuit measurement defeats the terminal-sampling fast
    // path, so every shot replays the suffix: 2M shots is far more
    // than a few milliseconds of work on any machine.
    JobSpec spec;
    QuantumCircuit big(10, 10);
    big.h(0);
    big.measure(0, 0);
    for (int q = 1; q < 10; ++q) big.cx(q - 1, q);
    for (int q = 1; q < 10; ++q) big.measure(q, q);
    spec.circuit = big;
    spec.shots = 2000000;
    spec.deadline_ms = 3.0;

    const JobResult result = scheduler.submit(spec).get();
    EXPECT_EQ(int(result.status), int(JobStatus::kOk));
    EXPECT_TRUE(result.truncated);
    EXPECT_TRUE(result.counts.truncated);
    EXPECT_LT(result.counts.shots, spec.shots);

    // Truncated payloads are timing-dependent and must never be cached.
    EXPECT_EQ(scheduler.cacheStats().insertions, 0u);
    scheduler.drain(); // returns promptly: nothing leaked or stalled
}

TEST(SchedulerTest, StopCancelsQueuedJobsAndRejectsNewOnes)
{
    SchedulerOptions options;
    options.workers = 1;
    options.start_paused = true;
    Scheduler scheduler(options);

    auto queued = scheduler.submit(coinSpec(1, 32));
    scheduler.stop();

    const JobResult cancelled = queued.get();
    EXPECT_EQ(int(cancelled.status), int(JobStatus::kCancelled));
    EXPECT_EQ(cancelled.error_code, ErrorCode::kServiceStopped);
    EXPECT_EQ(scheduler.metrics().cancelled, 1u);

    try {
        scheduler.submit(coinSpec(2, 32));
        FAIL() << "submit after stop must be rejected";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kServiceStopped);
    }
}

TEST(SchedulerTest, InvalidSpecsFailTheJobNotTheService)
{
    SchedulerOptions options;
    options.workers = 2;
    Scheduler scheduler(options);

    JobSpec bad = coinSpec(1);
    bad.assert_clbits = {{9}};
    const JobResult failed = scheduler.submit(bad).get();
    EXPECT_EQ(int(failed.status), int(JobStatus::kFailed));
    EXPECT_EQ(failed.error_code, ErrorCode::kBadRequest);
    EXPECT_FALSE(failed.error_message.empty());
    EXPECT_EQ(scheduler.metrics().failed, 1u);

    // The pool survives and still serves good jobs.
    const JobResult ok = scheduler.submit(coinSpec(2)).get();
    EXPECT_EQ(int(ok.status), int(JobStatus::kOk));
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

TEST(JsonTest, ParsesTheFullGrammar)
{
    const JsonValue v = JsonValue::parse(
        R"({"s":"a\n\u0041","n":-1.5e2,"i":42,"b":true,"z":null,)"
        R"("arr":[1,[2],{"k":3}],"obj":{}})");
    EXPECT_EQ(v.find("s")->asString(), "a\nA");
    EXPECT_DOUBLE_EQ(v.find("n")->asNumber(), -150.0);
    EXPECT_EQ(v.find("i")->asInt(), 42);
    EXPECT_TRUE(v.find("b")->asBool());
    EXPECT_TRUE(v.find("z")->isNull());
    ASSERT_EQ(v.find("arr")->asArray().size(), 3u);
    EXPECT_EQ(v.find("arr")->asArray()[2].find("k")->asInt(), 3);
    EXPECT_TRUE(v.find("obj")->asObject().empty());
    EXPECT_EQ(v.find("missing"), nullptr);

    EXPECT_EQ(v.intOr("i", 0), 42);
    EXPECT_EQ(v.intOr("missing", 7), 7);
    EXPECT_EQ(v.stringOr("s", ""), "a\nA");
    EXPECT_TRUE(v.boolOr("missing", true));
    EXPECT_DOUBLE_EQ(v.numberOr("missing", 2.5), 2.5);
}

TEST(JsonTest, RejectsMalformedDocuments)
{
    const char* bad[] = {
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "{\"a\" 1}",
        "\"unterminated",
        "\"bad escape \\q\"",
        "\"half surrogate \\ud800\"",
        "01",
        "1 trailing",
        "nul",
        "{\"dup\":1,\"dup\":2}",
    };
    for (const char* doc : bad) {
        SCOPED_TRACE(doc);
        try {
            JsonValue::parse(doc);
            FAIL() << "expected parse failure";
        } catch (const UserError& err) {
            EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
        }
    }

    // Depth bound: 70 nested arrays exceed the limit.
    std::string deep(70, '[');
    deep += std::string(70, ']');
    EXPECT_THROW(JsonValue::parse(deep), UserError);

    // Wrong-kind access is a typed error too.
    const JsonValue num = JsonValue::parse("3.5");
    EXPECT_THROW(num.asString(), UserError);
    EXPECT_THROW(num.asInt(), UserError); // not an exact integer
}

TEST(JsonTest, NumberRenderingRoundTrips)
{
    EXPECT_EQ(jsonNumber(3.0), "3");
    EXPECT_EQ(jsonNumber(-17.0), "-17");
    const std::string half = jsonNumber(0.5);
    EXPECT_DOUBLE_EQ(JsonValue::parse(half).asNumber(), 0.5);
    const std::string pi = jsonNumber(3.141592653589793);
    EXPECT_DOUBLE_EQ(JsonValue::parse(pi).asNumber(), 3.141592653589793);
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

TEST(WireTest, DecodesRunRequests)
{
    const WireRequest req = parseRequest(
        R"({"id":"j1","qasm":"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n)"
        R"(h q[0];\nmeasure q[0] -> c[0];\n",)"
        R"("shots":64,"seed":9,"deadline_ms":12.5,"priority":2,)"
        R"("threads":2,"cache":false,"assert_clbits":[[0]],)"
        R"("noise":{"kind":"depolarizing","p1":0.001,"p2":0.01}})");
    EXPECT_EQ(int(req.op), int(RequestOp::kRun));
    EXPECT_EQ(req.id, "j1");
    EXPECT_EQ(req.spec.tag, "j1");
    EXPECT_EQ(req.spec.circuit.numQubits(), 2);
    EXPECT_EQ(req.spec.shots, 64);
    EXPECT_EQ(req.spec.seed, 9u);
    EXPECT_DOUBLE_EQ(req.spec.deadline_ms, 12.5);
    EXPECT_EQ(req.spec.priority, 2);
    EXPECT_EQ(req.spec.num_threads, 2);
    EXPECT_FALSE(req.spec.use_cache);
    ASSERT_EQ(req.spec.assert_clbits.size(), 1u);
    EXPECT_EQ(req.spec.assert_clbits[0], std::vector<int>{0});
    EXPECT_TRUE(req.spec.noise.enabled());

    const WireRequest metrics = parseRequest(R"({"op":"metrics"})");
    EXPECT_EQ(int(metrics.op), int(RequestOp::kMetrics));
    const WireRequest shutdown =
        parseRequest(R"({"op":"shutdown","id":7})");
    EXPECT_EQ(int(shutdown.op), int(RequestOp::kShutdown));
    EXPECT_EQ(shutdown.id, "7"); // numeric ids are stringified
}

TEST(WireTest, RejectsBadRequests)
{
    const char* bad[] = {
        R"({"op":"frobnicate"})",
        R"({"id":"x"})",                            // run without qasm
        R"({"qasm":"OPENQASM 2.0; qreg q[1];","shots":0})",
        R"({"qasm":"OPENQASM 2.0; qreg q[1];","assert_clbits":3})",
        R"({"qasm":"OPENQASM 2.0; qreg q[1];","noise":"saturn"})",
        R"({"qasm":12})",
    };
    for (const char* doc : bad) {
        SCOPED_TRACE(doc);
        try {
            parseRequest(doc);
            FAIL() << "expected a bad-request rejection";
        } catch (const UserError& err) {
            EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
        }
    }

    // Bad circuit text keeps its own classification.
    try {
        parseRequest(R"({"qasm":"qreg q[1]; frobnicate q[0];"})");
        FAIL() << "expected a QASM syntax rejection";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kQasmSyntax);
    }
}

TEST(WireTest, EncodesResultsAsParseableJson)
{
    JobResult result;
    result.counts.shots = 10;
    result.counts.map["00"] = 4;
    result.counts.map["10"] = 6;
    result.program_counts.shots = 4;
    result.program_counts.map["0"] = 4;
    result.slot_error_rate = {0.6};
    result.pass_rate = 0.4;
    result.exec_ms = 1.5;

    const JsonValue v = JsonValue::parse(encodeResult("job-9", result));
    EXPECT_EQ(v.find("id")->asString(), "job-9");
    EXPECT_EQ(v.find("status")->asString(), "ok");
    EXPECT_FALSE(v.find("cache_hit")->asBool());
    EXPECT_EQ(v.find("shots")->asInt(), 10);
    EXPECT_FALSE(v.find("truncated")->asBool());
    EXPECT_DOUBLE_EQ(v.find("pass_rate")->asNumber(), 0.4);
    EXPECT_EQ(v.find("counts")->find("10")->asInt(), 6);
    EXPECT_EQ(v.find("program_counts")->find("0")->asInt(), 4);
    EXPECT_EQ(v.find("accepted_shots")->asInt(), 4);

    JobResult failure;
    failure.status = JobStatus::kFailed;
    failure.error_code = ErrorCode::kPolicyUnsupported;
    failure.error_message = "nope";
    const JsonValue e = JsonValue::parse(encodeResult("j", failure));
    EXPECT_EQ(e.find("status")->asString(), "error");
    EXPECT_EQ(e.find("code")->asString(), "policy_unsupported");
    EXPECT_EQ(e.find("message")->asString(), "nope");

    const JsonValue qf = JsonValue::parse(
        encodeError("x", ErrorCode::kQueueFull, "full"));
    EXPECT_EQ(qf.find("code")->asString(), "queue_full");
}

TEST(WireTest, EncodesMetricsSnapshots)
{
    SchedulerOptions options;
    options.workers = 2;
    Scheduler scheduler(options);
    scheduler.submit(coinSpec(5)).get();
    scheduler.submit(coinSpec(5)).get(); // cache hit

    const JsonValue v =
        JsonValue::parse(encodeMetrics(scheduler.metrics()));
    const JsonValue* m = v.find("metrics");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->find("accepted")->asInt(), 2);
    EXPECT_EQ(m->find("completed")->asInt(), 2);
    EXPECT_GE(m->find("cache_hits")->asInt(), 1);
    const JsonValue* hist = m->find("execute_ms");
    ASSERT_NE(hist, nullptr);
    EXPECT_GE(hist->find("total")->asInt(), 1);

    // Per-backend counters, in BackendKind order on both renderings;
    // the Clifford coin job executed once, on the stabilizer.
    EXPECT_NE(encodeMetrics(scheduler.metrics())
                  .find("\"backend_jobs\":{\"statevector\":0,"
                        "\"density_matrix\":0,\"stabilizer\":1,"
                        "\"mps\":0},"),
              std::string::npos);
    EXPECT_NE(scheduler.metrics().str().find(
                  "\n  backends: statevector=0 density_matrix=0 "
                  "stabilizer=1 mps=0\n"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

TEST(MetricsTest, HistogramBucketsAndMoments)
{
    LatencyHistogram hist;
    hist.record(0.05);    // below the first bound
    hist.record(0.3);     // mid bucket
    hist.record(1e6);     // beyond the last bound
    const LatencyHistogramSnapshot snap = hist.snapshot();
    ASSERT_EQ(snap.counts.size(), snap.bounds.size() + 1);
    EXPECT_EQ(snap.counts.front(), 1u);
    EXPECT_EQ(snap.counts.back(), 1u);
    EXPECT_EQ(snap.total, 3u);
    EXPECT_DOUBLE_EQ(snap.max_ms, 1e6);
    EXPECT_NEAR(snap.meanMs(), (0.05 + 0.3 + 1e6) / 3.0, 1e-9);

    uint64_t across = 0;
    for (uint64_t c : snap.counts) across += c;
    EXPECT_EQ(across, snap.total);

    EXPECT_EQ(LatencyHistogramSnapshot{}.meanMs(), 0.0);
}

// ---------------------------------------------------------------------
// Wire extensions for the fleet: retry_after_ms hints, ping, peek
// ---------------------------------------------------------------------

TEST(WireTest, ErrorResponsesCarryRetryAfterHints)
{
    const std::string hinted =
        encodeError("j1", ErrorCode::kQueueFull, "queue is full", 12.5);
    const JsonValue parsed = JsonValue::parse(hinted);
    EXPECT_EQ(parsed.stringOr("code", ""), "queue_full");
    EXPECT_DOUBLE_EQ(parsed.numberOr("retry_after_ms", 0.0), 12.5);

    // No estimate (0) => the field is omitted, not emitted as zero.
    const std::string bare =
        encodeError("j2", ErrorCode::kShedding, "shedding");
    EXPECT_EQ(bare.find("retry_after_ms"), std::string::npos);
}

TEST(WireTest, ErrorMessagesNameNoSourceFiles)
{
    // A rejected request's message reaches the client verbatim, so it
    // must not carry the library's source locations or build paths.
    SchedulerOptions options;
    options.workers = 1;
    Scheduler scheduler(options);
    LineService service(scheduler, nullptr, LineService::Options{});
    std::string response;
    service.handleLine(
        R"({"id":"bad","qasm":"OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n"})",
        [&](const std::string& line) { response = line; });
    scheduler.stop();

    const JsonValue parsed = JsonValue::parse(response);
    EXPECT_EQ(parsed.stringOr("code", ""), "qasm_syntax");
    const std::string message = parsed.stringOr("message", "");
    EXPECT_NE(message.find("foo"), std::string::npos) << message;
    EXPECT_EQ(message.find(".cpp:"), std::string::npos) << message;
    EXPECT_EQ(message.find('/'), std::string::npos) << message;
}

TEST(WireTest, SchedulerHintsMatchBreakerAndQueueState)
{
    SchedulerOptions options;
    options.workers = 2;
    Scheduler scheduler(options);
    // Idle service, no completions: a token hint, never zero, so
    // rejected callers still back off instead of spinning.
    const double hint = scheduler.retryAfterMsHint(ErrorCode::kQueueFull);
    EXPECT_GE(hint, 1.0);
    EXPECT_LE(hint, 10000.0);
    // Breaker disabled => closed => resubmit immediately.
    EXPECT_EQ(scheduler.retryAfterMsHint(ErrorCode::kShedding), 0.0);
    // Hints exist only for saturation rejections.
    EXPECT_EQ(scheduler.retryAfterMsHint(ErrorCode::kBadRequest), 0.0);
    scheduler.stop();
}

TEST(WireTest, PingIsDecodedAndEncoded)
{
    const WireRequest request =
        parseRequest(R"({"op":"ping","id":"!p0.1"})");
    EXPECT_EQ(int(request.op), int(RequestOp::kPing));
    EXPECT_EQ(request.id, "!p0.1");

    const std::string pong = encodePing("!p0.1", 3, 2);
    const JsonValue parsed = JsonValue::parse(pong);
    EXPECT_EQ(parsed.stringOr("id", ""), "!p0.1");
    EXPECT_TRUE(parsed.boolOr("pong", false));
    EXPECT_EQ(parsed.intOr("queue_depth", -1), 3);
    EXPECT_EQ(parsed.intOr("in_flight", -1), 2);
}

TEST(WireTest, PeekResponseIdFastPath)
{
    std::string id;
    ASSERT_TRUE(peekResponseId(R"({"id":"!f7.0","status":"ok"})", &id));
    EXPECT_EQ(id, "!f7.0");
    ASSERT_TRUE(peekResponseId(R"({"id":"","status":"ok"})", &id));
    EXPECT_EQ(id, "");
    // Escaped ids and non-response lines fall back to a full parse.
    EXPECT_FALSE(peekResponseId(R"({"id":"a\"b","status":"ok"})", &id));
    EXPECT_FALSE(peekResponseId(R"({"status":"ok","id":"x"})", &id));
    EXPECT_FALSE(peekResponseId("", &id));
}

// ---------------------------------------------------------------------
// Replay library: determinism and clean cancellation
// ---------------------------------------------------------------------

namespace
{

/** Write a small valid journal and return its path. */
std::string
writeReplayJournal(const std::string& name)
{
    const std::string path = testing::TempDir() + name;
    // TempDir persists across test runs and Journal opens O_APPEND; a
    // stale file from a previous run would triple the entry count.
    std::remove(path.c_str());
    resilience::Journal journal(path);
    const std::string qasm =
        "OPENQASM 2.0;\\nqreg q[2];\\ncreg c[2];\\nh q[0];\\ncx "
        "q[0],q[1];\\nmeasure q[0] -> c[0];\\nmeasure q[1] -> c[1];\\n";
    for (uint64_t seq = 0; seq < 3; ++seq) {
        journal.appendAccept(
            seq, "{\"id\":\"r" + std::to_string(seq) + "\",\"qasm\":\"" +
                     qasm + "\",\"shots\":64,\"seed\":" +
                     std::to_string(40 + seq) + "}");
    }
    journal.sync();
    return path;
}

} // namespace

TEST(ReplayTest, ReplaysDeterministicallyAndVerifiesHashes)
{
    const std::string path = writeReplayJournal("replay_ok.ndjson");
    std::ostringstream out1, out2, diag;
    const ReplayReport first = replayJournal(path, out1, diag);
    EXPECT_EQ(int(first.status), int(ReplayStatus::kOk));
    EXPECT_EQ(first.total, 3u);
    EXPECT_EQ(first.executed, 3u);
    EXPECT_EQ(first.mismatches, 0u);
    const ReplayReport second = replayJournal(path, out2, diag);
    EXPECT_EQ(out1.str(), out2.str()); // byte-identical replays
    EXPECT_EQ(int(second.status), int(ReplayStatus::kOk));
}

TEST(ReplayTest, DrainSignalCancelsCleanlyBetweenJobs)
{
    // The drain-mid-replay race, without signals: the flag is already
    // set when replay starts, so it must abort before executing a
    // single job — clean output (nothing emitted), journal untouched,
    // typed kInterrupted status (qassertd maps it to exit code 3).
    const std::string path = writeReplayJournal("replay_cancel.ndjson");
    volatile std::sig_atomic_t cancel = SIGTERM;
    ReplayOptions options;
    options.cancel = &cancel;
    std::ostringstream out, diag;
    const ReplayReport report = replayJournal(path, out, diag, options);
    EXPECT_EQ(int(report.status), int(ReplayStatus::kInterrupted));
    EXPECT_EQ(report.executed, 0u);
    EXPECT_TRUE(out.str().empty());

    // The journal file is intact: a second, uncancelled replay still
    // executes everything.
    cancel = 0;
    const ReplayReport resumed = replayJournal(path, out, diag, options);
    EXPECT_EQ(int(resumed.status), int(ReplayStatus::kOk));
    EXPECT_EQ(resumed.executed, 3u);
}

TEST(ReplayTest, MissingJournalIsATypedError)
{
    std::ostringstream out, diag;
    EXPECT_THROW(replayJournal("/nonexistent/journal.ndjson", out, diag),
                 UserError);
}

TEST(JsonTest, SetAndDumpRoundTrip)
{
    JsonValue value = JsonValue::parse(
        R"({"id":"old","shots":64,"nested":{"a":[1,2,true,null]}})");
    value.set("id", JsonValue::makeString("!f0.0"));
    value.set("priority", JsonValue::makeNumber(2));
    const JsonValue round = JsonValue::parse(value.dump());
    EXPECT_EQ(round.stringOr("id", ""), "!f0.0");
    EXPECT_EQ(round.intOr("shots", 0), 64);
    EXPECT_EQ(round.intOr("priority", 0), 2);
    ASSERT_NE(round.find("nested"), nullptr);
    EXPECT_EQ(round.find("nested")->find("a")->asArray().size(), 4u);
    // dump is stable: dump(parse(dump(x))) == dump(x).
    EXPECT_EQ(JsonValue::parse(value.dump()).dump(), value.dump());

    JsonValue scalar = JsonValue::makeNumber(1);
    EXPECT_THROW(scalar.set("k", JsonValue::makeNumber(2)), UserError);
}

} // namespace
} // namespace serve
} // namespace qa
