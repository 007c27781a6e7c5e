/**
 * @file
 * Backend subsystem tests: circuit/noise analysis, Pauli-channel
 * recognition, matrix-level Clifford recognition against dense
 * simulation, router capability edges, cross-backend distributional
 * equivalence (chi-square at 4096 shots, deterministic seeds), seeded
 * random Clifford circuits on the stabilizer backend against the exact
 * distribution, bit-determinism across 1/2/8 threads for every backend,
 * resolved-backend cache keys, and insertion-order robustness of the
 * Counts helpers.
 */
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "algos/states.hpp"
#include "backend/backend.hpp"
#include "backend/router.hpp"
#include "baselines/chi_square.hpp"
#include "common/error.hpp"
#include "core/runner.hpp"
#include "serve/job.hpp"
#include "sim/engine.hpp"
#include "stab/clifford.hpp"
#include "stab/tableau.hpp"
#include "synth/state_prep.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

using namespace algos;
using backend::analyzeCircuit;
using backend::BackendChoice;
using backend::CircuitClass;
using test::expectMatchesExact;

/** GHZ state preparation with terminal measurement of every qubit. */
QuantumCircuit
ghzCircuit(int n)
{
    QuantumCircuit qc(n, n);
    qc.h(0);
    for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
    qc.measureAll();
    return qc;
}

/**
 * GHZ-n preparation with a SWAP assertion of the {|00>, |11>} marginal
 * on qubits {0, 1}, then terminal measurement: n+1 qubits with a
 * mid-circuit measure and reset, and Clifford throughout.
 */
AssertedProgram
assertedGhz(int n)
{
    AssertedProgram prog(prepareState(ghzVector(n)));
    prog.assertState({0, 1},
                     StateSet::approximate({CVector::basisState(4, 0),
                                            CVector::basisState(4, 3)}),
                     AssertionDesign::kSwap);
    prog.measureProgram();
    return prog;
}

/**
 * Chi-square check of observed counts against the empirical frequencies
 * of a reference histogram (cells unioned over both). Loose threshold:
 * these are sanity gates against gross distribution bugs, not precision
 * statistics.
 */
void
expectSameDistribution(const Counts& observed, const Counts& reference)
{
    std::vector<std::string> keys;
    for (const auto& [bits, n] : observed.map) keys.push_back(bits);
    for (const auto& [bits, n] : reference.map) {
        if (observed.map.find(bits) == observed.map.end()) {
            keys.push_back(bits);
        }
    }
    std::vector<long> obs;
    std::vector<double> expected;
    for (const std::string& key : keys) {
        const auto o = observed.map.find(key);
        const auto r = reference.map.find(key);
        obs.push_back(o == observed.map.end() ? 0 : long(o->second));
        expected.push_back(
            r == reference.map.end()
                ? 0.0
                : double(r->second) / double(reference.shots));
    }
    const ChiSquareResult chi = chiSquareTest(obs, expected);
    EXPECT_GT(chi.p_value, 1e-4)
        << "distributions differ: chi2=" << chi.statistic
        << " dof=" << chi.dof;
}

Counts
runOn(BackendKind kind, const QuantumCircuit& qc, const NoiseModel* noise,
      int shots = 4096, int threads = 1)
{
    SimOptions options;
    options.shots = shots;
    options.seed = 321;
    options.noise = noise;
    options.num_threads = threads;
    return backend::backendFor(kind).runShots(qc, options);
}

// ---------------------------------------------------------------------
// Analyzer

TEST(AnalyzerTest, GhzIsTerminalClifford)
{
    const backend::CircuitProfile profile = analyzeCircuit(ghzCircuit(4));
    EXPECT_EQ(profile.klass, CircuitClass::kClifford);
    EXPECT_EQ(profile.non_clifford_gates, 0);
    EXPECT_TRUE(profile.terminal_measure_only);
    EXPECT_EQ(profile.terminal_measures.size(), 4u);
    EXPECT_EQ(profile.gates, 4u);
    EXPECT_EQ(profile.measures, 4u);
}

TEST(AnalyzerTest, TGateCountsAsNonClifford)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.t(0);
    qc.cx(0, 1);
    qc.measureAll();
    const backend::CircuitProfile profile = analyzeCircuit(qc);
    EXPECT_EQ(profile.klass, CircuitClass::kCliffordPlusFew);
    EXPECT_EQ(profile.non_clifford_gates, 1);
    ASSERT_EQ(profile.non_clifford_names.size(), 1u);
    EXPECT_EQ(profile.non_clifford_names[0], "t");
}

TEST(AnalyzerTest, CliffordAngleRotationRecognizedByMatrix)
{
    // rz(pi/2) is S up to global phase: Clifford, but only the matrix
    // recognizer can know that — the name check cannot.
    QuantumCircuit qc(1, 1);
    qc.rz(0, M_PI / 2.0);
    qc.measureAll();
    EXPECT_EQ(analyzeCircuit(qc).non_clifford_gates, 0);

    QuantumCircuit generic(1, 1);
    generic.rz(0, 0.3);
    generic.measureAll();
    EXPECT_EQ(analyzeCircuit(generic).non_clifford_gates, 1);
}

TEST(AnalyzerTest, MidCircuitMeasureAndResetBreakTerminalShape)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.measure(0, 0);
    qc.cx(0, 1);
    qc.measure(1, 1);
    EXPECT_FALSE(analyzeCircuit(qc).terminal_measure_only);

    QuantumCircuit with_reset(1, 1);
    with_reset.h(0);
    with_reset.reset(0);
    with_reset.measure(0, 0);
    EXPECT_FALSE(analyzeCircuit(with_reset).terminal_measure_only);
}

TEST(AnalyzerTest, PauliChannelRecognition)
{
    const auto depol =
        backend::recognizePauliChannel(KrausChannel::depolarizing(0.1));
    ASSERT_TRUE(depol.has_value());
    ASSERT_EQ(depol->weights.size(), 4u);
    double total = 0.0;
    for (double w : depol->weights) total += w;
    EXPECT_NEAR(total, 1.0, 1e-9);

    const auto flip =
        backend::recognizePauliChannel(KrausChannel::bitFlip(0.25));
    ASSERT_TRUE(flip.has_value());
    ASSERT_EQ(flip->weights.size(), 2u);

    EXPECT_FALSE(
        backend::recognizePauliChannel(KrausChannel::amplitudeDamping(0.1))
            .has_value());
    EXPECT_FALSE(
        backend::recognizePauliChannel(KrausChannel::phaseDamping(0.1))
            .has_value());
}

TEST(AnalyzerTest, NoiseProfiles)
{
    EXPECT_FALSE(backend::analyzeNoise(nullptr).enabled);

    const NoiseModel depol = NoiseModel::depolarizing(1e-3, 1e-2);
    const backend::NoiseProfile dp = backend::analyzeNoise(&depol);
    EXPECT_TRUE(dp.enabled);
    EXPECT_TRUE(dp.kraus);
    EXPECT_TRUE(dp.pauli_only);

    const NoiseModel melbourne = NoiseModel::ibmqMelbourneLike();
    const backend::NoiseProfile mp = backend::analyzeNoise(&melbourne);
    EXPECT_TRUE(mp.enabled);
    EXPECT_TRUE(mp.kraus);
    EXPECT_FALSE(mp.pauli_only); // amplitude damping is not a Pauli mix
}

// ---------------------------------------------------------------------
// Clifford recognition vs dense simulation

TEST(CliffordActionTest, RecognizedGatesMatchDenseEvolution)
{
    // A Clifford-angle circuit the name check cannot classify: evolve
    // it both on the tableau (via recognized actions) and on the dense
    // statevector, then compare the states.
    QuantumCircuit qc(3);
    qc.h(0);
    qc.rz(0, M_PI / 2.0);  // S up to phase
    qc.cx(0, 1);
    qc.ry(1, M_PI / 2.0);  // maps Z -> X: Clifford
    qc.rx(2, M_PI);        // X up to phase
    qc.cz(1, 2);
    qc.sdg(1);

    StabilizerTableau tableau(3);
    Statevector dense(3);
    for (const Instruction& instr : qc.instructions()) {
        const auto action = recognizeClifford(instr);
        ASSERT_TRUE(action.has_value()) << instr.name;
        tableau.applyClifford(*action, instr.qubits);
        dense.applyGate(instr);
    }
    const CVector from_tableau = tableau.toStatevector();
    const CVector& from_dense = dense.amplitudes();
    // Compare up to global phase via |<a|b>| = 1.
    EXPECT_NEAR(std::abs(from_tableau.inner(from_dense)), 1.0, 1e-9);
}

// ---------------------------------------------------------------------
// Router capability edges

TEST(RouterTest, CliffordCircuitRoutesToStabilizer)
{
    // The asserted GHZ-20 is 21 qubits with a mid-circuit measure and
    // reset: too wide to replay densely per shot, and still Clifford.
    const AssertedProgram ghz20 = assertedGhz(20);
    for (const QuantumCircuit& qc : {ghzCircuit(4), ghz20.circuit()}) {
        SCOPED_TRACE(std::to_string(qc.numQubits()) + " qubits");
        const BackendChoice choice = backend::routeShots(qc, SimOptions{});
        EXPECT_EQ(choice.backend, BackendKind::kStabilizer);
        EXPECT_TRUE(choice.capable);
        EXPECT_FALSE(choice.explicit_request);
        EXPECT_EQ(choice.klass, CircuitClass::kClifford);
    }
}

TEST(RouterTest, TGateFallsBackToStatevector)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.t(0);
    qc.cx(0, 1);
    qc.measureAll();
    const BackendChoice choice = backend::routeShots(qc, SimOptions{});
    EXPECT_EQ(choice.backend, BackendKind::kStatevector);
    EXPECT_TRUE(choice.capable);
    EXPECT_EQ(choice.non_clifford_gates, 1);
}

TEST(RouterTest, PauliNoiseKeepsStabilizer)
{
    const NoiseModel depol = NoiseModel::depolarizing(1e-3, 1e-2);
    SimOptions options;
    options.noise = &depol;
    const BackendChoice choice =
        backend::routeShots(ghzCircuit(4), options);
    EXPECT_EQ(choice.backend, BackendKind::kStabilizer);
}

TEST(RouterTest, NonPauliNoiseForcesDensityOnTerminalCircuit)
{
    const NoiseModel melbourne = NoiseModel::ibmqMelbourneLike();
    SimOptions options;
    options.noise = &melbourne;
    options.shots = 4096;
    const BackendChoice choice =
        backend::routeShots(ghzCircuit(4), options);
    EXPECT_EQ(choice.backend, BackendKind::kDensityMatrix);
    EXPECT_TRUE(choice.capable);
}

TEST(RouterTest, MidCircuitMeasurementExcludesDensity)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.t(0);
    qc.measure(0, 0);
    qc.cx(0, 1);
    qc.measure(1, 1);
    const NoiseModel melbourne = NoiseModel::ibmqMelbourneLike();
    SimOptions options;
    options.noise = &melbourne;
    const BackendChoice choice = backend::routeShots(qc, options);
    EXPECT_EQ(choice.backend, BackendKind::kStatevector);
}

TEST(RouterTest, ExplicitRequestIsHonoredAndValidated)
{
    QuantumCircuit t_circuit(1, 1);
    t_circuit.t(0);
    t_circuit.measureAll();

    SimOptions options;
    options.backend = BackendRequest::kStatevector;
    BackendChoice choice = backend::routeShots(ghzCircuit(3), options);
    EXPECT_EQ(choice.backend, BackendKind::kStatevector);
    EXPECT_TRUE(choice.explicit_request);
    EXPECT_TRUE(choice.capable);

    options.backend = BackendRequest::kStabilizer;
    choice = backend::routeShots(t_circuit, options);
    EXPECT_EQ(choice.backend, BackendKind::kStabilizer);
    EXPECT_TRUE(choice.explicit_request);
    EXPECT_FALSE(choice.capable);
    EXPECT_NE(choice.reason.find("non-Clifford"), std::string::npos);

    // prepareRun surfaces the incapable explicit request as a typed
    // kBadRequest instead of running it.
    try {
        backend::prepareRun(t_circuit, options);
        FAIL() << "expected kBadRequest";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
    }

    QuantumCircuit mid(2, 2);
    mid.h(0);
    mid.measure(0, 0);
    mid.cx(0, 1);
    mid.measure(1, 1);
    options.backend = BackendRequest::kDensityMatrix;
    choice = backend::routeShots(mid, options);
    EXPECT_EQ(choice.backend, BackendKind::kDensityMatrix);
    EXPECT_FALSE(choice.capable);
}

TEST(RouterTest, RoutingIsDeterministic)
{
    SimOptions options;
    options.shots = 4096;
    const BackendChoice a = backend::routeShots(ghzCircuit(5), options);
    for (int i = 0; i < 5; ++i) {
        const BackendChoice b =
            backend::routeShots(ghzCircuit(5), options);
        EXPECT_EQ(a.backend, b.backend);
        EXPECT_EQ(a.reason, b.reason);
    }
}

TEST(RouterTest, ExplainReportNamesTheChoice)
{
    const std::string report =
        backend::explainRouting(ghzCircuit(4), SimOptions{});
    EXPECT_NE(report.find("chosen: stabilizer"), std::string::npos);
    EXPECT_NE(report.find("class: clifford"), std::string::npos);
}

// ---------------------------------------------------------------------
// Cross-backend distributional equivalence

TEST(CrossBackendTest, GhzCountsAgreeWithExactDistribution)
{
    const QuantumCircuit qc = ghzCircuit(5);
    const Counts sv = runOn(BackendKind::kStatevector, qc, nullptr);
    const Counts stab = runOn(BackendKind::kStabilizer, qc, nullptr);

    for (const Counts* counts : {&sv, &stab}) {
        ASSERT_EQ(counts->shots, 4096);
        std::vector<long> obs = {0, 0};
        for (const auto& [bits, n] : counts->map) {
            ASSERT_TRUE(bits == "00000" || bits == "11111") << bits;
            obs[bits == "11111" ? 1 : 0] += long(n);
        }
        const ChiSquareResult chi = chiSquareTest(obs, {0.5, 0.5});
        EXPECT_GT(chi.p_value, 1e-4);
    }
    expectSameDistribution(stab, sv);
}

TEST(CrossBackendTest, MidCircuitMeasurementAgrees)
{
    QuantumCircuit qc(2, 3);
    qc.h(0);
    qc.measure(0, 0); // collapses the superposition mid-circuit
    qc.cx(0, 1);
    qc.measure(0, 1);
    qc.measure(1, 2);
    const Counts sv = runOn(BackendKind::kStatevector, qc, nullptr);
    const Counts stab = runOn(BackendKind::kStabilizer, qc, nullptr);
    EXPECT_EQ(sv.map.size(), 2u);
    EXPECT_EQ(stab.map.size(), 2u);
    expectSameDistribution(stab, sv);
}

TEST(CrossBackendTest, ResetAgreesDeterministically)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.cx(0, 1);
    qc.reset(0);
    qc.measureAll();
    const Counts sv = runOn(BackendKind::kStatevector, qc, nullptr);
    const Counts stab = runOn(BackendKind::kStabilizer, qc, nullptr);
    // Qubit 0 always reads 0 after the reset; qubit 1 stays random.
    for (const Counts* counts : {&sv, &stab}) {
        for (const auto& [bits, n] : counts->map) {
            EXPECT_EQ(bits[0], '0') << bits;
        }
    }
    expectSameDistribution(stab, sv);
}

TEST(CrossBackendTest, PauliNoiseAgrees)
{
    const NoiseModel depol = NoiseModel::depolarizing(5e-3, 2e-2);
    const QuantumCircuit qc = ghzCircuit(4);
    const Counts sv = runOn(BackendKind::kStatevector, qc, &depol);
    const Counts stab = runOn(BackendKind::kStabilizer, qc, &depol);
    expectSameDistribution(stab, sv);
}

TEST(CrossBackendTest, ReadoutErrorAgrees)
{
    QuantumCircuit qc(1, 1);
    qc.measureAll(); // |0> always; readout flips to 1 w.p. p01
    NoiseModel noise;
    noise.readout_p01 = 0.2;
    const Counts sv = runOn(BackendKind::kStatevector, qc, &noise);
    const Counts stab = runOn(BackendKind::kStabilizer, qc, &noise);
    for (const Counts* counts : {&sv, &stab}) {
        std::vector<long> obs = {0, 0};
        for (const auto& [bits, n] : counts->map) {
            obs[bits == "1" ? 1 : 0] += long(n);
        }
        const ChiSquareResult chi = chiSquareTest(obs, {0.8, 0.2});
        EXPECT_GT(chi.p_value, 1e-4);
    }
}

TEST(CrossBackendTest, DensityMatrixAgreesUnderNonPauliNoise)
{
    const NoiseModel melbourne = NoiseModel::ibmqMelbourneLike();
    const QuantumCircuit qc = ghzCircuit(3);
    const Counts sv = runOn(BackendKind::kStatevector, qc, &melbourne);
    const Counts dm = runOn(BackendKind::kDensityMatrix, qc, &melbourne);
    expectSameDistribution(dm, sv);
}

TEST(StabilizerBackendTest, MeasureAfterPhaseAndHadamardRuns)
{
    // Regression: measuring q0 of S.H|0> multiplied the pivot row into
    // its paired destabilizer, a non-Hermitian product, and threw
    // "stabilizer product left the group" on the auto-routed path.
    QuantumCircuit qc(1, 1);
    qc.s(0);
    qc.h(0);
    qc.measure(0, 0);
    SimOptions options;
    options.shots = 4096;
    options.seed = 17;
    EXPECT_EQ(backend::routeShots(qc, options).backend,
              BackendKind::kStabilizer);
    expectMatchesExact(runShots(qc, options), exactDistribution(qc).probs);
}

TEST(StabilizerBackendTest, AssertedGhzMatchesExactDistribution)
{
    // The assertion reads 0 on every branch, so the exact enumeration
    // has two leaves (all zeros, all ones) over 13 clbits.
    const AssertedProgram ghz12 = assertedGhz(12);
    const QuantumCircuit& qc = ghz12.circuit();
    SimOptions options;
    options.shots = 4096;
    options.seed = 20260806;
    ASSERT_EQ(backend::routeShots(qc, options).backend,
              BackendKind::kStabilizer);
    const Distribution exact = exactDistribution(qc);
    EXPECT_EQ(exact.probs.size(), 2u);
    expectMatchesExact(runShots(qc, options), exact.probs);
}

TEST(StabilizerBackendTest, RandomCliffordCircuitsMatchExactDistribution)
{
    // Seeded property: random 1-4 qubit Clifford circuits with
    // mid-circuit measurement and reset, on the stabilizer backend.
    Rng rng(2024);
    for (int trial = 0; trial < 40; ++trial) {
        const int n = 1 + int(rng.index(4));
        QuantumCircuit qc(n, n);
        const int ops = 4 + int(rng.index(12));
        int stochastic = 0;
        for (int i = 0; i < ops; ++i) {
            const int q = int(rng.index(uint64_t(n)));
            switch (rng.index(7)) {
              case 0: qc.h(q); break;
              case 1: qc.s(q); break;
              case 2: qc.sdg(q); break;
              case 3: qc.x(q); break;
              case 4:
                if (n > 1) {
                    const int offset = 1 + int(rng.index(uint64_t(n - 1)));
                    qc.cx(q, (q + offset) % n);
                }
                break;
              case 5:
                if (stochastic++ < 3) qc.measure(q, q);
                break;
              default:
                if (stochastic++ < 3) qc.reset(q);
                break;
            }
        }
        qc.measureAll();
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectMatchesExact(
            runOn(BackendKind::kStabilizer, qc, nullptr, 2048),
            exactDistribution(qc).probs);
    }
}

// ---------------------------------------------------------------------
// Determinism across thread counts (per resolved backend)

/** One backend's thread-invariance case: a circuit and noise it runs. */
struct ThreadCase
{
    BackendKind kind;
    QuantumCircuit circuit;
    NoiseModel noise;
    int shots;
};

ThreadCase
threadCase(BackendKind kind)
{
    switch (kind) {
      case BackendKind::kStatevector: {
        // Non-Clifford gates, mid-circuit measure and reset, trajectory
        // and readout noise: every shot replays the whole noisy stream.
        QuantumCircuit qc(4, 4);
        for (int q = 0; q < 4; ++q) qc.u3(q, 0.3 * q + 0.1, 0.7, 1.1);
        qc.cx(0, 1);
        qc.cx(2, 3);
        qc.measure(0, 0);
        qc.reset(1);
        qc.t(2);
        qc.cx(1, 2);
        qc.measureAll();
        NoiseModel noise = NoiseModel::depolarizing(0.002, 0.01);
        noise.readout_p01 = 0.015;
        noise.readout_p10 = 0.035;
        return {kind, qc, noise, 2048};
      }
      case BackendKind::kDensityMatrix:
        return {kind, ghzCircuit(3), NoiseModel::ibmqMelbourneLike(), 512};
      case BackendKind::kStabilizer: {
        QuantumCircuit qc = ghzCircuit(4);
        qc.reset(2); // keep a mid-circuit stochastic op in play
        qc.measureAll();
        return {kind, qc, NoiseModel::depolarizing(1e-3, 1e-2), 512};
      }
      case BackendKind::kMps: {
        // Replayed suffix (measure, reset, gates) ahead of the sampled
        // terminal tail.
        QuantumCircuit qc(4, 4);
        qc.h(0);
        qc.cx(0, 1);
        qc.measure(0, 0);
        qc.reset(0);
        qc.t(1);
        qc.cx(1, 2);
        qc.cx(2, 3);
        qc.measure(1, 1);
        qc.measure(2, 2);
        qc.measure(3, 3);
        NoiseModel noise;
        noise.readout_p01 = 0.02;
        noise.readout_p10 = 0.05;
        return {kind, qc, noise, 2048};
      }
    }
    return {kind, QuantumCircuit(1, 1), NoiseModel{}, 1};
}

class ThreadInvarianceTest : public ::testing::TestWithParam<BackendKind>
{};

TEST_P(ThreadInvarianceTest, CountsBitIdenticalAt1_2_8Threads)
{
    const ThreadCase tc = threadCase(GetParam());
    const Counts one =
        runOn(tc.kind, tc.circuit, &tc.noise, tc.shots, 1);
    EXPECT_EQ(one.shots, tc.shots);
    for (int threads : {2, 8}) {
        const Counts many =
            runOn(tc.kind, tc.circuit, &tc.noise, tc.shots, threads);
        EXPECT_EQ(one.map, many.map) << threads << " threads";
        EXPECT_EQ(many.shots, tc.shots);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ThreadInvarianceTest,
    ::testing::Values(BackendKind::kStatevector,
                      BackendKind::kDensityMatrix,
                      BackendKind::kStabilizer, BackendKind::kMps),
    [](const ::testing::TestParamInfo<BackendKind>& param) {
        return std::string(backendName(param.param));
    });

TEST(BackendDeterminismTest, AutoRouteMatchesExplicitBackend)
{
    // qa::runShots auto-routes GHZ to the stabilizer backend; forcing
    // the same backend must reproduce the same counts bit-for-bit.
    const QuantumCircuit qc = ghzCircuit(4);
    SimOptions options;
    options.shots = 512;
    options.seed = 99;
    const Counts routed = runShots(qc, options);
    options.backend = BackendRequest::kStabilizer;
    const Counts forced = runShots(qc, options);
    EXPECT_EQ(routed.map, forced.map);
}

// ---------------------------------------------------------------------
// Serve integration: cache keys, results, policy outcomes

TEST(BackendCacheKeyTest, AutoAndExplicitSameBackendShareKey)
{
    serve::JobSpec auto_spec;
    auto_spec.circuit = ghzCircuit(3);
    serve::JobSpec explicit_spec = auto_spec;
    explicit_spec.backend = BackendRequest::kStabilizer;
    EXPECT_EQ(serve::jobKey(auto_spec), serve::jobKey(explicit_spec));

    serve::JobSpec forced_spec = auto_spec;
    forced_spec.backend = BackendRequest::kStatevector;
    EXPECT_NE(serve::jobKey(auto_spec), serve::jobKey(forced_spec));
}

TEST(BackendCacheKeyTest, JobKeyNeverThrowsOnIncapableRequest)
{
    serve::JobSpec spec;
    QuantumCircuit qc(1, 1);
    qc.t(0);
    qc.measureAll();
    spec.circuit = qc;
    spec.backend = BackendRequest::kStabilizer;
    EXPECT_NO_THROW(serve::jobKey(spec));
    // Executing it is the typed failure.
    EXPECT_THROW(serve::executeJob(spec), UserError);
}

TEST(BackendResultTest, JobResultRecordsResolvedBackend)
{
    serve::JobSpec spec;
    spec.circuit = ghzCircuit(3);
    spec.shots = 256;
    const serve::JobResult clifford = serve::executeJob(spec);
    EXPECT_EQ(clifford.backend.backend, BackendKind::kStabilizer);
    EXPECT_FALSE(clifford.backend.explicit_request);

    QuantumCircuit qc(1, 1);
    qc.t(0);
    qc.measureAll();
    spec.circuit = qc;
    const serve::JobResult general = serve::executeJob(spec);
    EXPECT_EQ(general.backend.backend, BackendKind::kStatevector);
}

TEST(BackendResultTest, PolicyOutcomeRecordsBackend)
{
    AssertedProgram prog(prepareState(ghzVector(3)));
    prog.assertState({0, 1, 2}, StateSet::pure(ghzVector(3)),
                     AssertionDesign::kSwap);
    prog.measureProgram();
    SimOptions options;
    options.shots = 256;
    PolicyOptions popts;
    popts.policy = AssertionPolicy::kDiscard;
    const PolicyOutcome outcome = runAssertedPolicy(prog, options, popts);
    EXPECT_EQ(outcome.backend.backend, BackendKind::kStabilizer);
    EXPECT_GT(outcome.shots_accepted, 0);
}

// ---------------------------------------------------------------------
// Counts helpers: insertion order must never matter

TEST(CountsOrderTest, MergeAndMarginalIgnoreInsertionOrder)
{
    const std::vector<std::pair<std::string, int>> entries = {
        {"000", 7}, {"101", 3}, {"011", 5}, {"110", 2}, {"001", 11}};
    Counts forward, shuffled;
    for (const auto& [bits, n] : entries) {
        forward.map[bits] = n;
        forward.shots += n;
    }
    std::vector<std::pair<std::string, int>> reversed(entries.rbegin(),
                                                      entries.rend());
    std::rotate(reversed.begin(), reversed.begin() + 2, reversed.end());
    for (const auto& [bits, n] : reversed) {
        shuffled.map[bits] = n;
        shuffled.shots += n;
    }
    EXPECT_EQ(forward.map, shuffled.map);

    Counts extra;
    extra.map = {{"101", 4}, {"111", 6}};
    extra.shots = 10;
    Counts merged_a = forward;
    mergeCounts(merged_a, extra);
    Counts merged_b = shuffled;
    mergeCounts(merged_b, extra);
    EXPECT_EQ(merged_a.map, merged_b.map);
    EXPECT_EQ(merged_a.shots, merged_b.shots);
    EXPECT_EQ(merged_a.map.at("101"), 7);

    const Counts marg_a = marginalCounts(merged_a, {0, 2});
    const Counts marg_b = marginalCounts(merged_b, {0, 2});
    EXPECT_EQ(marg_a.map, marg_b.map);
}

} // namespace
} // namespace qa
