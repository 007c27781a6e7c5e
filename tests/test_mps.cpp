/**
 * @file
 * MPS backend tests (DESIGN.md Sec. 16): exact amplitudes of the chain
 * core, SWAP routing of long-range gates, truncation accounting at a
 * binding chi cap, cross-backend chi-square equivalence against the
 * statevector engine (GHZ lines, QFT, shallow QAOA, mid-circuit
 * measure/reset including an asserted Trotter chain, readout noise),
 * bit-determinism across thread counts
 * (the mid-circuit case runs in test_backend's ThreadInvarianceTest),
 * entanglement-aware router arbitration with typed explicit-override
 * rejection, jobKey chi sensitivity, wire explain fields, and the
 * assertion compiler's typed rejection under backend=mps.
 */
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acomp/compiler.hpp"
#include "algos/qft.hpp"
#include "algos/states.hpp"
#include "backend/backend.hpp"
#include "backend/router.hpp"
#include "circuit/stdgates.hpp"
#include "common/error.hpp"
#include "core/asserted_program.hpp"
#include "mps/mps_state.hpp"
#include "serve/job.hpp"
#include "sim/statevector.hpp"
#include "serve/wire.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

using backend::BackendChoice;
using test::expectMatchesExact;

/** Non-Clifford Trotterized Ising chain (line topology), unmeasured. */
QuantumCircuit
trotterGates(int n, int layers, int clbits)
{
    QuantumCircuit qc(n, clbits);
    for (int q = 0; q < n; ++q) qc.rx(q, 0.30 + 0.01 * q);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q + 1 < n; ++q) {
            qc.cx(q, q + 1);
            qc.rz(q + 1, 0.17);
            qc.cx(q, q + 1);
        }
        for (int q = 0; q < n; ++q) qc.rx(q, 0.21);
    }
    return qc;
}

/** The Trotter chain with terminal measurement. */
QuantumCircuit
trotterChain(int n, int layers)
{
    QuantumCircuit qc = trotterGates(n, layers, n);
    qc.measureAll();
    return qc;
}

/**
 * The Trotter chain with a SWAP assertion that its last two qubits lie
 * in the {|00>, |11>} subspace (one ancilla at chain site n, mid-circuit
 * measure and reset), then terminal measurement of the chain.
 */
AssertedProgram
assertedTrotterChain(int n, int layers)
{
    AssertedProgram prog(trotterGates(n, layers, 0));
    prog.assertState({n - 2, n - 1},
                     StateSet::approximate({CVector::basisState(4, 0),
                                            CVector::basisState(4, 3)}),
                     AssertionDesign::kSwap);
    prog.measureProgram();
    return prog;
}

/** GHZ line with terminal measurement. */
QuantumCircuit
ghzLine(int n)
{
    QuantumCircuit qc(n, n);
    qc.h(0);
    for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
    qc.measureAll();
    return qc;
}

/** Depth-one QAOA on a ring (the wrap edge is long-range on a chain). */
QuantumCircuit
qaoaRing(int n, double gamma, double beta)
{
    QuantumCircuit qc(n, n);
    for (int q = 0; q < n; ++q) qc.h(q);
    for (int q = 0; q < n; ++q) {
        const int a = q;
        const int b = (q + 1) % n;
        qc.cx(a, b);
        qc.rz(b, gamma);
        qc.cx(a, b);
    }
    for (int q = 0; q < n; ++q) qc.rx(q, beta);
    qc.measureAll();
    return qc;
}

/** Rotation/CX brickwork: entanglement genuinely grows to full width. */
QuantumCircuit
brickwork(int n, int depth)
{
    QuantumCircuit qc(n, n);
    for (int d = 0; d < depth; ++d) {
        for (int q = 0; q < n; ++q) {
            qc.ry(q, 0.40 + 0.13 * q + 0.31 * d);
        }
        for (int q = d % 2; q + 1 < n; q += 2) qc.cx(q, q + 1);
    }
    qc.measureAll();
    return qc;
}

/**
 * Exact clbit-string distribution by dense branch enumeration: gates
 * evolve the statevector, measure/reset ops fork on both outcomes with
 * their true probabilities. Tractable for the test widths used here.
 */
void
enumerateBranches(Statevector sv, size_t idx, double weight,
                  std::string clbits, const QuantumCircuit& qc,
                  std::map<std::string, double>* out)
{
    const auto& instrs = qc.instructions();
    while (idx < instrs.size()) {
        const Instruction& instr = instrs[idx];
        if (instr.type == OpType::kMeasure ||
            instr.type == OpType::kReset) {
            const int q = instr.qubits[0];
            const double p1 = sv.probabilityOne(q);
            for (int outcome = 0; outcome < 2; ++outcome) {
                const double p = outcome ? p1 : 1.0 - p1;
                if (p < 1e-12) continue;
                Statevector branch = sv;
                branch.collapse(q, outcome);
                std::string cl = clbits;
                if (instr.type == OpType::kMeasure) {
                    cl[size_t(instr.cbit)] = char('0' + outcome);
                } else if (outcome == 1) {
                    branch.applyMatrix(gates::x(), {q});
                }
                enumerateBranches(std::move(branch), idx + 1,
                                  weight * p, cl, qc, out);
            }
            return;
        }
        if (instr.isGate()) sv.applyGate(instr);
        ++idx;
    }
    (*out)[clbits] += weight;
}

/** Exact outcome distribution, optionally folded through readout error. */
std::map<std::string, double>
exactClbitDistribution(const QuantumCircuit& qc, double p01 = 0.0,
                  double p10 = 0.0)
{
    std::map<std::string, double> ideal;
    enumerateBranches(Statevector(qc.numQubits()), 0, 1.0,
                      std::string(size_t(qc.numClbits()), '0'), qc,
                      &ideal);
    if (p01 <= 0.0 && p10 <= 0.0) return ideal;
    std::vector<int> measured;
    for (const Instruction& instr : qc.instructions()) {
        if (instr.type == OpType::kMeasure) {
            measured.push_back(instr.cbit);
        }
    }
    for (const int c : measured) {
        std::map<std::string, double> next;
        for (const auto& [bits, p] : ideal) {
            const bool one = bits[size_t(c)] == '1';
            const double pflip = one ? p10 : p01;
            std::string flipped = bits;
            flipped[size_t(c)] = one ? '0' : '1';
            next[bits] += p * (1.0 - pflip);
            if (pflip > 0.0) next[flipped] += p * pflip;
        }
        ideal = std::move(next);
    }
    return ideal;
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
// MpsState core

TEST(MpsStateTest, GhzAmplitudesExact)
{
    mps::MpsState state(3, 8);
    state.apply1q(gates::h(), 0);
    state.apply2q(gates::cx(), 0, 1);
    state.apply2q(gates::cx(), 1, 2);
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(state.amplitude("000")), inv_sqrt2, 1e-12);
    EXPECT_NEAR(std::abs(state.amplitude("111")), inv_sqrt2, 1e-12);
    EXPECT_NEAR(std::abs(state.amplitude("010")), 0.0, 1e-12);
    EXPECT_EQ(state.stats().discarded_weight, 0.0);
}

TEST(MpsStateTest, LongRangeGateIsSwapRouted)
{
    mps::MpsState state(4, 8);
    state.apply1q(gates::h(), 0);
    state.apply2q(gates::cx(), 0, 3); // routed through sites 1 and 2
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(state.amplitude("0000")), inv_sqrt2, 1e-12);
    EXPECT_NEAR(std::abs(state.amplitude("1001")), inv_sqrt2, 1e-12);
    EXPECT_NEAR(std::abs(state.amplitude("1000")), 0.0, 1e-12);
    // Routing must not permute the qubit -> site map: qubit 3, not 1.
    EXPECT_NEAR(std::abs(state.amplitude("1100")), 0.0, 1e-12);
    EXPECT_GT(state.stats().two_site_updates, 1u);
}

TEST(MpsStateTest, ReversedQubitOrderMatchesConvention)
{
    // cx with control = higher-index qubit: matrix qubits[0] is the MSB.
    mps::MpsState state(2, 4);
    state.apply1q(gates::h(), 1);
    state.apply2q(gates::cx(), 1, 0);
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(state.amplitude("00")), inv_sqrt2, 1e-12);
    EXPECT_NEAR(std::abs(state.amplitude("11")), inv_sqrt2, 1e-12);
    EXPECT_NEAR(std::abs(state.amplitude("01")), 0.0, 1e-12);
}

TEST(MpsStateTest, MeasureCollapseProjectsAndRenormalizes)
{
    mps::MpsState state(2, 4);
    state.apply1q(gates::h(), 0);
    state.apply2q(gates::cx(), 0, 1);
    Rng rng = Rng::forStream(7, 0);
    const int outcome = state.measureCollapse(0, rng);
    ASSERT_TRUE(outcome == 0 || outcome == 1);
    const std::string expect = outcome == 0 ? "00" : "11";
    EXPECT_NEAR(std::abs(state.amplitude(expect)), 1.0, 1e-10);
}

TEST(MpsStateTest, BindingChiCapTracksDiscardedWeight)
{
    mps::MpsState exact(6, 64);
    mps::MpsState capped(6, 2);
    auto drive = [](mps::MpsState& s) {
        for (int d = 0; d < 6; ++d) {
            for (int q = 0; q < 6; ++q) {
                s.apply1q(gates::ry(0.40 + 0.13 * q + 0.31 * d), q);
            }
            for (int q = d % 2; q + 1 < 6; q += 2) {
                s.apply2q(gates::cx(), q, q + 1);
            }
        }
    };
    drive(exact);
    drive(capped);
    EXPECT_EQ(exact.stats().discarded_weight, 0.0);
    EXPECT_GT(capped.stats().discarded_weight, 0.0);
    EXPECT_LE(capped.stats().max_bond, 2);
    EXPECT_GT(exact.stats().max_bond, 2);
}

// ---------------------------------------------------------------------
// Cross-backend distributional equivalence

TEST(MpsBackendTest, GhzLineMatchesStatevector)
{
    const QuantumCircuit qc = ghzLine(8);
    const auto exact = exactClbitDistribution(qc);
    expectMatchesExact(runOn(BackendKind::kMps, qc, nullptr), exact);
    expectMatchesExact(runOn(BackendKind::kStatevector, qc, nullptr),
                       exact);
}

TEST(MpsBackendTest, QftMatchesStatevector)
{
    QuantumCircuit qc(8, 8);
    qc.x(0);
    qc.x(2);
    qc.h(5);
    std::vector<int> qubits;
    for (int q = 0; q < 8; ++q) qubits.push_back(q);
    algos::appendQft(qc, qubits);
    qc.measureAll();
    const auto exact = exactClbitDistribution(qc);
    expectMatchesExact(runOn(BackendKind::kMps, qc, nullptr), exact);
    expectMatchesExact(runOn(BackendKind::kStatevector, qc, nullptr),
                       exact);
}

TEST(MpsBackendTest, ShallowQaoaMatchesStatevector)
{
    const QuantumCircuit qc = qaoaRing(10, 0.6, 0.4);
    const auto exact = exactClbitDistribution(qc);
    expectMatchesExact(runOn(BackendKind::kMps, qc, nullptr), exact);
    expectMatchesExact(runOn(BackendKind::kStatevector, qc, nullptr),
                       exact);
}

TEST(MpsBackendTest, MidCircuitMeasureResetMatchesStatevector)
{
    QuantumCircuit qc(5, 5);
    qc.h(0);
    qc.cx(0, 1);
    qc.cx(1, 2);
    qc.measure(1, 1); // mid-circuit: later gates depend on collapse
    qc.reset(1);
    qc.h(1);
    qc.t(2);
    qc.cx(2, 3);
    qc.cx(3, 4);
    qc.measure(0, 0);
    qc.measure(2, 2);
    qc.measure(3, 3);
    qc.measure(4, 4);
    // The asserted 10-qubit Trotter chain puts its ancilla at chain site
    // 10; the assertion's measure and reset sit mid-circuit.
    const AssertedProgram trotter = assertedTrotterChain(10, 2);
    for (const QuantumCircuit& circuit : {qc, trotter.circuit()}) {
        SCOPED_TRACE(std::to_string(circuit.numQubits()) + " qubits");
        const auto exact = exactClbitDistribution(circuit);
        expectMatchesExact(runOn(BackendKind::kMps, circuit, nullptr),
                           exact);
        expectMatchesExact(
            runOn(BackendKind::kStatevector, circuit, nullptr), exact);
    }
}

TEST(MpsBackendTest, ReadoutNoiseMatchesStatevector)
{
    NoiseModel noise;
    noise.readout_p01 = 0.02;
    noise.readout_p10 = 0.05;
    const QuantumCircuit qc = ghzLine(6);
    const auto exact = exactClbitDistribution(qc, noise.readout_p01,
                                         noise.readout_p10);
    expectMatchesExact(runOn(BackendKind::kMps, qc, &noise), exact);
    expectMatchesExact(runOn(BackendKind::kStatevector, qc, &noise),
                       exact);
}

TEST(MpsBackendTest, LongRangeGatesMatchStatevector)
{
    QuantumCircuit qc(8, 8);
    qc.h(0);
    qc.cx(0, 7);
    qc.cp(1, 6, 0.7);
    qc.h(1);
    qc.cx(1, 4);
    qc.t(2);
    qc.cx(5, 2); // control above target
    qc.measureAll();
    const auto exact = exactClbitDistribution(qc);
    expectMatchesExact(runOn(BackendKind::kMps, qc, nullptr), exact);
    expectMatchesExact(runOn(BackendKind::kStatevector, qc, nullptr),
                       exact);
}

TEST(MpsBackendTest, BitIdenticalAcrossThreadCounts)
{
    const QuantumCircuit qc = qaoaRing(9, 0.5, 0.3);
    const Counts one = runOn(BackendKind::kMps, qc, nullptr, 4096, 1);
    const Counts two = runOn(BackendKind::kMps, qc, nullptr, 4096, 2);
    const Counts eight = runOn(BackendKind::kMps, qc, nullptr, 4096, 8);
    EXPECT_EQ(one.map, two.map);
    EXPECT_EQ(one.map, eight.map);
}

TEST(MpsBackendTest, KrausNoiseRejectedAtPrepare)
{
    const NoiseModel noise = NoiseModel::depolarizing(1e-3, 1e-2);
    SimOptions options;
    options.shots = 16;
    options.noise = &noise;
    try {
        backend::backendFor(BackendKind::kMps)
            .prepare(ghzLine(3), options);
        FAIL() << "expected kBadRequest";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
    }
}

TEST(MpsBackendTest, TruncationErrorSurfacedByPreparedCircuit)
{
    SimOptions options;
    options.shots = 512;
    options.seed = 9;
    options.backend = BackendRequest::kMps;
    options.mps_chi = 2;
    options.mps_trunc_tol = 1.0; // opt in to lossy compression
    const QuantumCircuit qc = brickwork(6, 6);
    const backend::RoutedRun run = backend::prepareRun(qc, options);
    EXPECT_EQ(run.choice.backend, BackendKind::kMps);
    EXPECT_GT(run.prepared->truncationError(), 0.0);
    const Counts counts = backend::runPrepared(*run.prepared, options);
    EXPECT_EQ(counts.shots, 512);
}

// ---------------------------------------------------------------------
// Router arbitration

TEST(RouterMpsTest, WideTrotterChainAutoRoutesToMps)
{
    // The asserted chains add an ancilla with a mid-circuit measure and
    // reset, which ends every terminal fast path.
    SimOptions options;
    options.shots = 4096;
    const AssertedProgram asserted32 = assertedTrotterChain(32, 2);
    const AssertedProgram asserted40 = assertedTrotterChain(40, 2);
    for (const QuantumCircuit& qc :
         {trotterChain(32, 2), asserted32.circuit(),
          asserted40.circuit()}) {
        SCOPED_TRACE(std::to_string(qc.numQubits()) + " qubits");
        const BackendChoice choice = backend::routeShots(qc, options);
        EXPECT_EQ(choice.backend, BackendKind::kMps);
        EXPECT_FALSE(choice.explicit_request);
        EXPECT_TRUE(choice.capable);
        EXPECT_GE(choice.mps_chi, 2);
        EXPECT_GT(choice.mps_ent_width, 0);
        EXPECT_EQ(choice.mps_trunc_bound, 0.0);
        EXPECT_NE(choice.reason.find("MPS"), std::string::npos)
            << choice.reason;
    }
}

TEST(RouterMpsTest, WideTrotterChainExecutesExactly)
{
    // 32 qubits is far beyond the dense engines; the chain runs it and
    // a product of the per-qubit marginals sanity-checks nothing NaN'd.
    SimOptions options;
    options.shots = 256;
    options.seed = 5;
    options.num_threads = 2;
    const QuantumCircuit qc = trotterChain(32, 2);
    const Counts counts = runShots(qc, options);
    EXPECT_EQ(counts.shots, 256);
    for (const auto& [bits, n] : counts.map) {
        EXPECT_EQ(bits.size(), 32u);
    }
}

TEST(RouterMpsTest, NarrowCircuitsKeepTheirBackends)
{
    SimOptions options;
    options.shots = 4096;
    // QFT-8: dense SIMD wins below the width floor.
    QuantumCircuit qft_qc(8, 8);
    std::vector<int> qubits;
    for (int q = 0; q < 8; ++q) qubits.push_back(q);
    algos::appendQft(qft_qc, qubits);
    qft_qc.measureAll();
    EXPECT_EQ(backend::routeShots(qft_qc, options).backend,
              BackendKind::kStatevector);
    // GHZ-30: Clifford, the tableau beats any chi.
    EXPECT_EQ(backend::routeShots(ghzLine(30), options).backend,
              BackendKind::kStabilizer);
}

TEST(RouterMpsTest, ChoiceAlwaysCarriesMpsFacts)
{
    SimOptions options;
    options.shots = 128;
    const BackendChoice choice =
        backend::routeShots(brickwork(6, 4), options);
    EXPECT_NE(choice.backend, BackendKind::kMps);
    EXPECT_GE(choice.mps_chi, 1);
    EXPECT_GT(choice.mps_ent_width, 0);
    EXPECT_GE(choice.mps_trunc_bound, 0.0);
}

TEST(RouterMpsTest, ExplicitMpsOverTruncationToleranceIsTypedError)
{
    // Dense brickwork needs chi ~ 2^6; chi=2 at the default tolerance
    // must be a typed capability error, not a silent fallback.
    SimOptions options;
    options.shots = 128;
    options.backend = BackendRequest::kMps;
    options.mps_chi = 2;
    const QuantumCircuit qc = brickwork(12, 12);
    const BackendChoice choice = backend::routeShots(qc, options);
    EXPECT_EQ(choice.backend, BackendKind::kMps);
    EXPECT_TRUE(choice.explicit_request);
    EXPECT_FALSE(choice.capable);
    EXPECT_NE(choice.reason.find("mps_tol"), std::string::npos)
        << choice.reason;
    try {
        backend::prepareRun(qc, options);
        FAIL() << "expected kBadRequest";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
        EXPECT_NE(std::string(err.what()).find("truncation"),
                  std::string::npos)
            << err.what();
    }
}

TEST(RouterMpsTest, ExplicitMpsWideGateIsTypedError)
{
    SimOptions options;
    options.shots = 16;
    options.backend = BackendRequest::kMps;
    QuantumCircuit qc(5, 5);
    qc.unitary(CMatrix::identity(16), {0, 1, 2, 3});
    qc.measureAll();
    const BackendChoice choice = backend::routeShots(qc, options);
    EXPECT_FALSE(choice.capable);
    EXPECT_NE(choice.reason.find("mps"), std::string::npos)
        << choice.reason;
}

TEST(RouterMpsTest, ExplainRoutingReportsEntanglementLine)
{
    SimOptions options;
    options.shots = 4096;
    const std::string report =
        backend::explainRouting(trotterChain(32, 2), options);
    EXPECT_NE(report.find("entanglement:"), std::string::npos) << report;
    EXPECT_NE(report.find("effective chi"), std::string::npos) << report;
    EXPECT_NE(report.find("mps="), std::string::npos) << report;
}

// ---------------------------------------------------------------------
// Serve-layer integration

TEST(MpsServeTest, JobKeyAbsorbsChiOnlyWhenMpsRouted)
{
    serve::JobSpec mps_spec;
    mps_spec.circuit = trotterChain(26, 2);
    mps_spec.shots = 64;
    mps_spec.seed = 1;
    const Hash128 base = serve::jobKey(mps_spec);
    mps_spec.mps_chi = 128;
    EXPECT_NE(serve::jobKey(mps_spec), base);

    serve::JobSpec sv_spec;
    sv_spec.circuit = brickwork(5, 3);
    sv_spec.shots = 64;
    sv_spec.seed = 1;
    const Hash128 sv_base = serve::jobKey(sv_spec);
    sv_spec.mps_chi = 128;
    EXPECT_EQ(serve::jobKey(sv_spec), sv_base);
}

TEST(MpsServeTest, ExplainLineCarriesMpsBlock)
{
    SimOptions options;
    options.shots = 4096;
    const BackendChoice choice =
        backend::routeShots(trotterChain(26, 2), options);
    const std::string line = serve::encodeExplain("req-1", choice);
    EXPECT_NE(line.find("\"backend\":\"mps\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"mps\":{\"chi\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"ent_width\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"trunc_bound\":"), std::string::npos) << line;
}

TEST(MpsServeTest, MpsJobExecutesThroughExecuteJob)
{
    serve::JobSpec spec;
    spec.circuit = trotterChain(26, 1);
    spec.shots = 128;
    spec.seed = 11;
    spec.backend = BackendRequest::kMps;
    const serve::JobResult result = serve::executeJob(spec);
    EXPECT_EQ(result.status, serve::JobStatus::kOk);
    EXPECT_EQ(result.backend.backend, BackendKind::kMps);
    EXPECT_EQ(result.counts.shots, 128);
    EXPECT_GE(result.mps_truncation_error, 0.0);
}

// ---------------------------------------------------------------------
// Assertion compiler under backend=mps

TEST(AcompMpsTest, PinnedPauliFormOnDenseTargetIsTypedRejection)
{
    QuantumCircuit qc = algos::wPrep(3);
    acomp::AssertionSite site;
    site.position = qc.instructions().size();
    site.qubits = {0, 1, 2};
    site.set =
        std::make_shared<StateSet>(StateSet::pure(algos::wVector(3)));
    acomp::AcompOptions opts;
    opts.backend = BackendRequest::kMps;
    opts.lowering = acomp::LoweringRequest::kPauliMeasure;
    try {
        acomp::compileAssertions(qc, {site}, opts);
        FAIL() << "expected kUnsupportedAssertion";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kUnsupportedAssertion);
    }
    // kAuto under the same backend still finds a unitary form whose
    // lowered fragment fits the chain's arity-3 gadget limit.
    opts.lowering = acomp::LoweringRequest::kAuto;
    const acomp::CompiledProgram compiled =
        acomp::compileAssertions(qc, {site}, opts);
    ASSERT_EQ(compiled.slots.size(), 1u);
    for (const acomp::SlotSummary& slot : compiled.slots) {
        EXPECT_NE(slot.form, acomp::LoweringForm::kPauliMeasure);
        EXPECT_NE(slot.form, acomp::LoweringForm::kPauliSample);
    }
}

} // namespace
} // namespace qa
