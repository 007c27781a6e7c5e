/**
 * @file
 * Shot-execution tests: the shared shot plan (prefix split rules and
 * the terminal tail), bit-exact determinism across thread counts, exact
 * agreement between the prefix-cached statevector plan and a full
 * per-shot replay, the O(log d) sample table, the pooled shot loop, and
 * the sorted basisProbabilities container.
 */
#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "backend/shot_program.hpp"
#include "circuit/stdgates.hpp"
#include "common/error.hpp"
#include "sim/engine.hpp"
#include "sim/statevector.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

using backend::analyzeShotPlan;
using backend::ShotPlan;

/** Layered pseudo-random circuit (no measurements). */
QuantumCircuit
layered(int n, int layers, uint64_t seed)
{
    QuantumCircuit qc(n);
    Rng rng(seed);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < n; ++q) {
            qc.u3(q, rng.uniform(0, 3), rng.uniform(0, 3),
                  rng.uniform(0, 3));
        }
        for (int q = 0; q + 1 < n; q += 2) qc.cx(q, q + 1);
    }
    return qc;
}

/** Circuit exercising every stochastic feature the engine handles. */
QuantumCircuit
kitchenSink(int n)
{
    QuantumCircuit qc(n, n);
    std::vector<int> ident;
    for (int q = 0; q < n; ++q) ident.push_back(q);
    qc.compose(layered(n, 2, 11), ident);
    qc.measure(0, 0); // mid-circuit measurement
    qc.reset(1);      // mid-circuit reset
    qc.compose(layered(n, 1, 12), ident);
    qc.measureAll();
    return qc;
}

TEST(ShotPlanTest, NoiselessTerminalMeasurementIsFastPath)
{
    QuantumCircuit qc(3, 3);
    qc.h(0);
    qc.cx(0, 1);
    qc.barrier();
    qc.measureAll();
    const ShotPlan plan = analyzeShotPlan(qc, nullptr);
    EXPECT_EQ(plan.split, 3u); // first measure (barrier is index 2)
    EXPECT_EQ(plan.tail, plan.split); // nothing replayed before the tail
    ASSERT_EQ(plan.terminal_measures.size(), 3u);
    EXPECT_EQ(plan.terminal_measures[0], (std::pair<int, int>{0, 0}));
}

TEST(ShotPlanTest, MidCircuitMeasurementDisablesFastPath)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.measure(0, 0);
    qc.cx(0, 1);
    qc.measure(1, 1);
    const ShotPlan plan = analyzeShotPlan(qc, nullptr);
    EXPECT_EQ(plan.split, 1u);
    // The measure/cx suffix must replay; only the last measure is tail.
    EXPECT_EQ(plan.tail, 3u);
    ASSERT_EQ(plan.terminal_measures.size(), 1u);
    EXPECT_EQ(plan.terminal_measures[0], (std::pair<int, int>{1, 1}));
}

TEST(ShotPlanTest, NoiseModelSplitsAtFirstNoisyGate)
{
    // 2q-only depolarizing: 1q gates stay in the prefix, the first cx
    // is the split point.
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.h(1);
    qc.cx(0, 1);
    qc.measureAll();
    const NoiseModel noise = NoiseModel::depolarizing(0.0, 0.05);
    const ShotPlan plan = analyzeShotPlan(qc, &noise);
    EXPECT_EQ(plan.split, 2u);
    EXPECT_GT(plan.tail, plan.split); // the noisy cx replays per shot

    // A backend that applies gate noise exactly passes no model: the
    // whole gate stream is prefix and the tail starts at the split.
    const ShotPlan exact = analyzeShotPlan(qc, nullptr);
    EXPECT_EQ(exact.split, 3u);
    EXPECT_EQ(exact.tail, exact.split);
}

TEST(ShotPlanTest, ReadoutOnlyNoiseKeepsFastPath)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.cx(0, 1);
    qc.measureAll();
    NoiseModel noise;
    noise.readout_p01 = 0.02;
    noise.readout_p10 = 0.05;
    const ShotPlan plan = analyzeShotPlan(qc, &noise);
    EXPECT_EQ(plan.split, 2u);
    EXPECT_EQ(plan.tail, plan.split);
    EXPECT_EQ(plan.terminal_measures.size(), 2u);
}

TEST(ShotPlanTest, DisabledNoiseModelIgnored)
{
    QuantumCircuit qc(1, 1);
    qc.h(0);
    qc.measure(0, 0);
    const NoiseModel empty;
    const ShotPlan plan = analyzeShotPlan(qc, &empty);
    EXPECT_EQ(plan.split, 1u);
    EXPECT_EQ(plan.tail, plan.split);
}

TEST(SampleTableTest, MatchesDistribution)
{
    Statevector sv(2);
    sv.applyMatrix(gates::h(), {0});
    sv.applyMatrix(gates::cx(), {0, 1});
    std::vector<double> weights;
    for (size_t i = 0; i < sv.amplitudes().dim(); ++i) {
        weights.push_back(std::norm(sv.amplitudes()[i]));
    }
    const backend::SampleTable table(weights);
    Rng rng(3);
    int ones = 0;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t idx = table.sample(rng);
        EXPECT_TRUE(idx == 0 || idx == 3) << idx;
        if (idx == 3) ++ones;
    }
    EXPECT_NEAR(double(ones) / 20000.0, 0.5, 0.02);
}

TEST(EngineTest, SeededRunsBitIdenticalAcrossThreadCounts)
{
    const QuantumCircuit qc = kitchenSink(4);
    NoiseModel noise = NoiseModel::depolarizing(0.002, 0.01);
    noise.readout_p01 = 0.015;
    noise.readout_p10 = 0.035;

    SimOptions base;
    base.shots = 2048;
    base.seed = 77;
    base.noise = &noise;

    base.num_threads = 1;
    const Counts one = runShots(qc, base);
    for (int threads : {2, 8}) {
        SimOptions options = base;
        options.num_threads = threads;
        const Counts many = runShots(qc, options);
        EXPECT_EQ(one.map, many.map) << threads << " threads";
        EXPECT_EQ(many.shots, base.shots);
    }
}

TEST(EngineTest, TerminalSamplingBitIdenticalAcrossThreadCounts)
{
    QuantumCircuit qc(5, 5);
    std::vector<int> ident{0, 1, 2, 3, 4};
    qc.compose(layered(5, 3, 21), ident);
    qc.measureAll();

    SimOptions base;
    base.shots = 4096;
    base.seed = 123;
    base.num_threads = 1;
    const Counts one = runShots(qc, base);
    for (int threads : {2, 8}) {
        SimOptions options = base;
        options.num_threads = threads;
        EXPECT_EQ(one.map, runShots(qc, options).map)
            << threads << " threads";
    }
}

TEST(EngineTest, PrefixCachedAgreesExactlyWithNaive)
{
    // Mid-circuit measurement, reset, trajectory noise, and readout
    // error: the cached plan must consume the identical RNG stream a
    // naive full replay of every instruction does.
    const QuantumCircuit qc = kitchenSink(3);
    NoiseModel noise = NoiseModel::depolarizing(0.001, 0.02);
    noise.readout_p01 = 0.01;
    noise.readout_p10 = 0.03;

    const std::vector<const NoiseModel*> models{nullptr, &noise};
    for (const NoiseModel* model : models) {
        SimOptions cached;
        cached.shots = 1024;
        cached.seed = 5150;
        cached.noise = model;
        EXPECT_EQ(runShots(qc, cached).map,
                  test::fullReplayCounts(qc, cached).map)
            << (model ? "noisy" : "noiseless");
    }
}

TEST(EngineTest, FastPathMatchesExactDistribution)
{
    QuantumCircuit qc(3, 3);
    qc.h(0);
    qc.cx(0, 1);
    qc.u3(2, 1.1, 0.3, 0.2);
    qc.cx(2, 1);
    qc.measureAll();
    const Distribution exact = exactDistribution(qc);
    SimOptions options;
    options.shots = 40000;
    options.seed = 9;
    const Distribution sampled = runShots(qc, options).toDistribution();
    for (const auto& [bits, p] : exact.probs) {
        EXPECT_NEAR(sampled.probability(bits), p, 0.02) << bits;
    }
}

TEST(EngineTest, FastPathHandlesMeasuredSubset)
{
    // Only one qubit of a Bell pair is measured: the sampled marginal
    // must match, and unmeasured clbits stay '0'.
    QuantumCircuit qc(2, 1);
    qc.h(0);
    qc.cx(0, 1);
    qc.measure(1, 0);
    SimOptions options;
    options.shots = 20000;
    options.seed = 17;
    const Counts counts = runShots(qc, options);
    EXPECT_NEAR(counts.toDistribution().probability("1"), 0.5, 0.02);
}

TEST(EngineTest, ReadoutErrorOnFastPath)
{
    // |0> measured with P(0->1) = 0.1: the flip rate must survive the
    // classical fast path.
    QuantumCircuit qc(1, 1);
    qc.measure(0, 0);
    NoiseModel noise;
    noise.readout_p01 = 0.1;
    SimOptions options;
    options.shots = 40000;
    options.seed = 3;
    options.noise = &noise;
    const Counts counts = runShots(qc, options);
    EXPECT_NEAR(counts.toDistribution().probability("1"), 0.1, 0.01);
}

TEST(EngineTest, MeasurementFreeCircuit)
{
    QuantumCircuit qc(2);
    qc.h(0);
    SimOptions options;
    options.shots = 16;
    options.seed = 1;
    const Counts counts = runShots(qc, options);
    EXPECT_EQ(counts.shots, 16);
    ASSERT_EQ(counts.map.size(), 1u);
    EXPECT_EQ(counts.map.begin()->second, 16);
}

TEST(StatevectorApiTest, BasisProbabilitiesSortedAndMapAgree)
{
    Statevector sv(3);
    sv.applyMatrix(gates::h(), {0});
    sv.applyMatrix(gates::h(), {2});
    const auto sorted = sv.basisProbabilities(1e-9);
    ASSERT_EQ(sorted.size(), 4u);
    for (size_t i = 1; i < sorted.size(); ++i) {
        EXPECT_LT(sorted[i - 1].first, sorted[i].first);
    }
    const auto map = sv.basisProbabilitiesMap(1e-9);
    ASSERT_EQ(map.size(), sorted.size());
    for (const auto& [index, p] : sorted) {
        EXPECT_DOUBLE_EQ(map.at(index), p);
    }
}

TEST(ShotPoolTest, WorkerExceptionIsRethrownWithThreadsJoined)
{
    // A shot body that fails mid-run: the pool must join every worker
    // and rethrow the first exception on the calling thread instead of
    // calling std::terminate from a detached stack.
    std::vector<long> locals;
    EXPECT_THROW(
        runShotPool(
            100000, 4, 0.0, locals,
            [&]() {
                return [](int shot, long& local) {
                    if (shot == 54321) {
                        throw std::runtime_error("shot body failed");
                    }
                    ++local;
                };
            }),
        std::runtime_error);

    // The serial path funnels failures the same way.
    std::vector<long> serial_locals;
    EXPECT_THROW(runShotPool(100, 1, 0.0, serial_locals,
                             [&]() {
                                 return [](int shot, long&) {
                                     if (shot == 50) {
                                         throw UserError("serial body");
                                     }
                                 };
                             }),
                 UserError);
}

TEST(ShotPoolTest, ExceptionDuringDeadlineDrainJoinsCleanly)
{
    // Regression for the pool shutdown ordering: a worker throwing
    // while its siblings are already draining on an expired deadline
    // must not race the pool teardown. Whichever side wins — the
    // deadline truncating the run or the poisoned shot throwing — every
    // thread is joined before runShotPool unwinds and the per-worker
    // locals stay consistent (tier1 runs this under TSAN, which is what
    // actually checks the join ordering).
    for (int iter = 0; iter < 25; ++iter) {
        std::vector<long> locals;
        try {
            const ShotLoopStatus status = runShotPool(
                1 << 20, 4, 0.2, locals,
                [&]() {
                    return [](int shot, long& local) {
                        if ((shot & 4095) == 4095) {
                            throw std::runtime_error("poisoned shot");
                        }
                        ++local;
                    };
                });
            // The deadline beat every poisoned shot: a clean truncation.
            EXPECT_TRUE(status.truncated);
        } catch (const std::runtime_error&) {
            // A poisoned shot threw while the others drained: the
            // exception surfaced on this thread after a full join.
        }
        long total = 0;
        for (long local : locals) total += local;
        EXPECT_GE(total, 0);
    }
}

TEST(ShotPoolTest, CompletedRunsReportFullShotCount)
{
    std::vector<long> locals;
    const ShotLoopStatus status = runShotPool(
        1000, 3, 0.0, locals,
        [&]() { return [](int, long& local) { ++local; }; });
    EXPECT_EQ(status.completed, 1000);
    EXPECT_FALSE(status.truncated);
    long total = 0;
    for (long local : locals) total += local;
    EXPECT_EQ(total, 1000);
}

TEST(ShotPoolTest, ExpiredDeadlineTruncatesCooperatively)
{
    // Deadline already expired at entry: workers stop at their first
    // check and the status reports what (little) completed.
    std::vector<long> locals;
    const ShotLoopStatus status = runShotPool(
        1000000, 4, 1e-9, locals,
        [&]() { return [](int, long& local) { ++local; }; });
    EXPECT_TRUE(status.truncated);
    EXPECT_LT(status.completed, 1000000);
    long total = 0;
    for (long local : locals) total += local;
    EXPECT_EQ(total, status.completed);
}

TEST(EngineTest, DeadlineTruncationReturnsPartialCounts)
{
    // runShots with an immediately-expiring deadline: a valid partial
    // histogram flagged truncated, not an exception or a hang.
    QuantumCircuit qc(8, 8);
    std::vector<int> ident{0, 1, 2, 3, 4, 5, 6, 7};
    qc.compose(layered(8, 3, 5), ident);
    qc.measureAll();
    SimOptions options;
    options.shots = 500000;
    options.seed = 21;
    options.num_threads = 2;
    options.deadline_ms = 1e-6;
    const Counts counts = runShots(qc, options);
    EXPECT_TRUE(counts.truncated);
    EXPECT_LT(counts.shots, options.shots);
    int total = 0;
    for (const auto& [bits, n] : counts.map) total += n;
    EXPECT_EQ(total, counts.shots);

    // Unbounded runs stay un-truncated.
    options.shots = 64;
    options.deadline_ms = 0.0;
    const Counts full = runShots(qc, options);
    EXPECT_FALSE(full.truncated);
    EXPECT_EQ(full.shots, 64);
}

TEST(EngineTest, ShotProgramReplaysOneShotDeterministically)
{
    QuantumCircuit qc = kitchenSink(4);
    const auto prepared =
        backend::backendFor(BackendKind::kStatevector)
            .prepare(qc, SimOptions{});
    const auto sampler = prepared->makeSampler();
    Rng a = Rng::forStream(9, 3);
    const std::string first = sampler->runOne(a);
    Rng b = Rng::forStream(9, 3);
    const std::string replay = sampler->runOne(b);
    EXPECT_EQ(first, replay);
    EXPECT_EQ(first.size(), size_t(qc.numClbits()));
}

TEST(RngTest, StreamsDependOnlyOnSeedAndIndex)
{
    Rng a = Rng::forStream(42, 7);
    Rng b = Rng::forStream(42, 7);
    for (int i = 0; i < 8; ++i) {
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    }
    // Distinct streams diverge immediately.
    Rng c = Rng::forStream(42, 8);
    EXPECT_NE(Rng::forStream(42, 7).uniform(), c.uniform());
}

} // namespace
} // namespace qa
