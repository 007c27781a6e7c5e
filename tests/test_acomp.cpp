/**
 * @file
 * Tests for the assertion compiler (src/acomp): stabilizer-generator
 * extraction, the Pauli parity-measurement gadget, cross-form
 * statistical equivalence of the lowerings, thread-count determinism of
 * multi-variant runs, the static assertion generator (including the GHZ
 * idiom's fault-detection power), kUnsupportedAssertion diagnostics,
 * and the serve-layer auto_assert integration.
 */
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acomp/compiler.hpp"
#include "acomp/generator.hpp"
#include "acomp/lowering.hpp"
#include "acomp/run.hpp"
#include "algos/qft.hpp"
#include "algos/states.hpp"
#include "backend/backend.hpp"
#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "serve/job.hpp"
#include "serve/wire.hpp"
#include "stab/observables.hpp"
#include "synth/pauli_gadget.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

using namespace acomp;
using namespace algos;

/** GHZ-n preparation with measured program output. */
QuantumCircuit
measuredGhz(int n)
{
    QuantumCircuit qc(n, n);
    qc.h(0);
    for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
    for (int q = 0; q < n; ++q) qc.measure(q, q);
    return qc;
}

/** One user site asserting the GHZ-n state at instruction `position`. */
AssertionSite
ghzSite(int n, size_t position)
{
    AssertionSite site;
    site.position = position;
    for (int q = 0; q < n; ++q) site.qubits.push_back(q);
    site.set = std::make_shared<StateSet>(StateSet::pure(ghzVector(n)));
    return site;
}

TEST(AcompLoweringTest, NamesRoundTrip)
{
    EXPECT_STREQ(formName(LoweringForm::kSwap), "swap");
    EXPECT_STREQ(formName(LoweringForm::kPauliMeasure), "pauli");
    EXPECT_STREQ(formName(LoweringForm::kPauliSample), "pauli_sample");
    for (const char* name :
         {"auto", "swap", "or", "ndd", "pauli", "pauli_sample"}) {
        LoweringRequest req;
        ASSERT_TRUE(parseLoweringRequest(name, &req)) << name;
        EXPECT_STREQ(loweringRequestName(req), name);
    }
    LoweringRequest req;
    EXPECT_TRUE(parseLoweringRequest("pauli_measure", &req));
    EXPECT_EQ(req, LoweringRequest::kPauliMeasure);
    EXPECT_FALSE(parseLoweringRequest("bogus", &req));
    EXPECT_STREQ(invariantClassName(InvariantClass::kEntangled),
                 "entangled");
}

TEST(AcompLoweringTest, GhzGeneratorsStabilizeTheState)
{
    for (int n : {2, 3, 5}) {
        const CorrectSubspace sub =
            analyzeStateSet(StateSet::pure(ghzVector(n)));
        const auto gens = stabilizerGenerators(sub);
        ASSERT_TRUE(gens.has_value()) << "GHZ-" << n;
        EXPECT_EQ(int(gens->size()), n);
        for (const PauliString& g : *gens) {
            EXPECT_TRUE(stabilizes(g, ghzVector(n)));
        }
    }
}

TEST(AcompLoweringTest, AffineBasisSetsGetSignedZGenerators)
{
    // {|00>,|11>}: rank-2 affine set stabilized by +ZZ.
    const CVector b00 = CVector::basisState(4, 0);
    const CVector b11 = CVector::basisState(4, 3);
    const auto even = stabilizerGenerators(
        analyzeStateSet(StateSet::approximate({b00, b11})));
    ASSERT_TRUE(even.has_value());
    ASSERT_EQ(even->size(), 1u);
    EXPECT_EQ((*even)[0].phase(), 0);
    for (const CVector& v : {b00, b11}) {
        EXPECT_TRUE(stabilizes((*even)[0], v));
    }

    // {|01>,|10>}: the odd-parity coset needs the -ZZ sign.
    const CVector b01 = CVector::basisState(4, 1);
    const CVector b10 = CVector::basisState(4, 2);
    const auto odd = stabilizerGenerators(
        analyzeStateSet(StateSet::approximate({b01, b10})));
    ASSERT_TRUE(odd.has_value());
    ASSERT_EQ(odd->size(), 1u);
    EXPECT_EQ((*odd)[0].phase(), 2);
    for (const CVector& v : {b01, b10}) {
        EXPECT_TRUE(stabilizes((*odd)[0], v));
    }
}

TEST(AcompLoweringTest, NonStabilizerSubspacesReturnNullopt)
{
    // W-3 is famously not a stabilizer state.
    EXPECT_FALSE(
        stabilizerGenerators(analyzeStateSet(StateSet::pure(wVector(3))))
            .has_value());
    // Rank 3 in 2 qubits: not a power of 2.
    EXPECT_FALSE(stabilizerGenerators(
                     analyzeStateSet(StateSet::approximate(
                         {CVector::basisState(4, 0),
                          CVector::basisState(4, 1),
                          CVector::basisState(4, 2)})))
                     .has_value());
}

TEST(AcompLoweringTest, FullSpaceYieldsEmptyGeneratorList)
{
    const auto gens = stabilizerGenerators(
        analyzeStateSet(StateSet::approximate({CVector::basisState(2, 0),
                                               CVector::basisState(2, 1)})));
    ASSERT_TRUE(gens.has_value());
    EXPECT_TRUE(gens->empty());
}

TEST(AcompLoweringTest, ClusterStateGeneratorsViaConjugation)
{
    // Linear cluster states exercise the Clifford-conjugation path with
    // X-containing generators (K_i = Z X Z).
    const CVector cluster = linearClusterVector(4);
    const auto gens = stabilizerGenerators(
        analyzeStateSet(StateSet::pure(cluster)));
    ASSERT_TRUE(gens.has_value());
    EXPECT_EQ(gens->size(), 4u);
    for (const PauliString& g : *gens) {
        EXPECT_TRUE(stabilizes(g, cluster));
    }
}

TEST(PauliGadgetTest, MeasuresWithoutDisturbingStabilizedStates)
{
    // Bell state, stabilized by +XX and +ZZ: two back-to-back gadgets
    // both read 0, proving the first one restored the state.
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.cx(0, 1);
    PauliString xx(2), zz(2);
    xx.setX(0, true);
    xx.setX(1, true);
    zz.setZ(0, true);
    zz.setZ(1, true);
    appendPauliMeasureGadget(qc, xx, {0, 1}, 0);
    appendPauliMeasureGadget(qc, zz, {0, 1}, 1);

    SimOptions options;
    options.shots = 256;
    options.seed = 11;
    const Counts counts = backend::backendFor(BackendKind::kStatevector).runShots(qc, options);
    EXPECT_DOUBLE_EQ(counts.fractionAllZero({0, 1}), 1.0);
}

TEST(PauliGadgetTest, NegativePhaseGeneratorKeepsZeroMeansPass)
{
    // (|01>+|10>)/sqrt2 is stabilized by -ZZ and flagged by +ZZ.
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.cx(0, 1);
    qc.x(1);
    PauliString pos(2), neg(2);
    pos.setZ(0, true);
    pos.setZ(1, true);
    neg = pos;
    neg.setPhase(2);
    appendPauliMeasureGadget(qc, neg, {0, 1}, 0);
    appendPauliMeasureGadget(qc, pos, {0, 1}, 1);

    SimOptions options;
    options.shots = 128;
    options.seed = 5;
    const Counts counts = backend::backendFor(BackendKind::kStatevector).runShots(qc, options);
    EXPECT_DOUBLE_EQ(counts.fractionAllZero({0}), 1.0);
    EXPECT_DOUBLE_EQ(counts.fractionAllZero({1}), 0.0);
}

/**
 * A guarded GHZ workload: GHZ-n preparation, an assertion site at the
 * end of the prep, an optional QFT suffix (non-Clifford, so the
 * instrumented circuit leaves the stabilizer backend), and terminal
 * measurement.
 */
struct GhzWorkload
{
    int n = 3;
    bool qft = false;
};

const GhzWorkload kGhzCatalog[] = {{3, false}, {6, false}, {10, false},
                                   {6, true}};

std::string
workloadName(const GhzWorkload& w)
{
    return "ghz" + std::to_string(w.n) + (w.qft ? "_qft" : "");
}

/** The workload's program; `site_pos` receives the site position. */
QuantumCircuit
ghzProgram(const GhzWorkload& w, bool fault, size_t* site_pos)
{
    QuantumCircuit qc(w.n, w.n);
    qc.h(0);
    for (int q = 0; q + 1 < w.n; ++q) qc.cx(q, q + 1);
    if (fault) qc.x(1);
    *site_pos = qc.instructions().size();
    if (w.qft) {
        std::vector<int> qubits;
        for (int q = 0; q < w.n; ++q) qubits.push_back(q);
        appendQft(qc, qubits);
    }
    for (int q = 0; q < w.n; ++q) qc.measure(q, q);
    return qc;
}

/** Compile the workload with its one end-of-prep site under `req`. */
CompiledProgram
compileGhz(LoweringRequest req, const GhzWorkload& w = {},
           bool fault = false)
{
    size_t site_pos = 0;
    const QuantumCircuit qc = ghzProgram(w, fault, &site_pos);
    AcompOptions opts;
    opts.lowering = req;
    return compileAssertions(qc, {ghzSite(w.n, site_pos)}, opts);
}

TEST(AcompCompilerTest, FormsMatchTheRequestAndBudget)
{
    for (const GhzWorkload& w : kGhzCatalog) {
        SCOPED_TRACE(workloadName(w));
        const CompiledProgram pauli =
            compileGhz(LoweringRequest::kPauliMeasure, w);
        ASSERT_EQ(pauli.slots.size(), 1u);
        EXPECT_EQ(pauli.slots[0].form, LoweringForm::kPauliMeasure);
        EXPECT_TRUE(pauli.slots[0].ancillas.empty());
        EXPECT_EQ(pauli.slots[0].generators, w.n);
        EXPECT_EQ(pauli.variants.size(), 1u);
        EXPECT_EQ(pauli.slots[0].clbits.size(), size_t(w.n));

        const CompiledProgram swap = compileGhz(LoweringRequest::kSwap, w);
        ASSERT_EQ(swap.slots.size(), 1u);
        EXPECT_EQ(swap.slots[0].form, LoweringForm::kSwap);
        EXPECT_FALSE(swap.slots[0].ancillas.empty());
        EXPECT_TRUE(swap.repair_supported);

        const CompiledProgram sample =
            compileGhz(LoweringRequest::kPauliSample, w);
        ASSERT_EQ(sample.slots.size(), 1u);
        EXPECT_EQ(sample.slots[0].form, LoweringForm::kPauliSample);
        // One generator per variant.
        EXPECT_EQ(sample.variants.size(), size_t(w.n));
        EXPECT_EQ(sample.slots[0].sub_circuits, w.n);
        EXPECT_EQ(sample.slots[0].clbits.size(), 1u);

        // Stabilizer-expressible slot: the cost model picks the
        // ancilla-free Pauli form on its own, even before a QFT.
        const CompiledProgram autod = compileGhz(LoweringRequest::kAuto, w);
        EXPECT_EQ(autod.slots[0].form, LoweringForm::kPauliMeasure);
        EXPECT_TRUE(autod.slots[0].ancillas.empty());
    }
}

TEST(AcompCompilerTest, CrossFormVerdictsAreChiSquareEquivalent)
{
    // 4096 shots of each clean workload under all three forms: every
    // form must accept every shot, and the accepted program histograms
    // must match the unasserted program's exact distribution.
    for (const GhzWorkload& w : kGhzCatalog) {
        size_t site_pos = 0;
        const Distribution exact =
            exactDistribution(ghzProgram(w, false, &site_pos));
        for (LoweringRequest req :
             {LoweringRequest::kSwap, LoweringRequest::kPauliMeasure,
              LoweringRequest::kPauliSample}) {
            SCOPED_TRACE(workloadName(w) + " " + loweringRequestName(req));
            SimOptions options;
            options.shots = 4096;
            options.seed = 1234;
            const PolicyOutcome out = runLowered(compileGhz(req, w), options);
            EXPECT_DOUBLE_EQ(out.pass_rate, 1.0);
            ASSERT_EQ(out.slot_error_rate.size(), 1u);
            EXPECT_DOUBLE_EQ(out.slot_error_rate[0], 0.0);
            EXPECT_EQ(out.program_counts.shots, 4096);
            test::expectMatchesExact(out.program_counts, exact.probs);
        }
    }
}

TEST(AcompCompilerTest, EveryFormDetectsAnInjectedPauliFault)
{
    // X on q1 after the prep: orthogonal to GHZ-3, so the full parity
    // check flags deterministically. The sampled form measures one
    // generator per shot, so its rate is k/3 for the k generators the
    // fault anticommutes with — at least one, whatever generator basis
    // the extractor picked.
    SimOptions options;
    options.shots = 1024;
    options.seed = 77;

    const PolicyOutcome pauli = runLowered(
        compileGhz(LoweringRequest::kPauliMeasure, {}, true), options);
    EXPECT_DOUBLE_EQ(pauli.slot_error_rate[0], 1.0);

    const PolicyOutcome sampled = runLowered(
        compileGhz(LoweringRequest::kPauliSample, {}, true), options);
    EXPECT_GT(sampled.slot_error_rate[0], 0.25);

    const PolicyOutcome swap = runLowered(
        compileGhz(LoweringRequest::kSwap, {}, true), options);
    EXPECT_GT(swap.slot_error_rate[0], 0.3);
}

TEST(AcompCompilerTest, MultiVariantRunsAreThreadCountDeterministic)
{
    const CompiledProgram compiled =
        compileGhz(LoweringRequest::kPauliSample);
    for (BackendRequest backend :
         {BackendRequest::kAuto, BackendRequest::kStatevector}) {
        SimOptions base;
        base.shots = 512;
        base.seed = 4242;
        base.backend = backend;
        base.num_threads = 1;
        const PolicyOutcome one = runLowered(compiled, base);
        for (int threads : {2, 8}) {
            SimOptions options = base;
            options.num_threads = threads;
            const PolicyOutcome many = runLowered(compiled, options);
            EXPECT_EQ(many.raw.map, one.raw.map) << threads;
            EXPECT_EQ(many.program_counts.map, one.program_counts.map);
        }
    }
}

TEST(AcompGeneratorTest, ClassifiesClassicalAndSuperpositionInvariants)
{
    QuantumCircuit qc(3, 3);
    qc.h(0);
    qc.x(1);
    qc.x(2);
    qc.measureAll();
    const std::vector<AssertionSite> sites = generateAssertions(qc);
    ASSERT_EQ(sites.size(), 2u);
    bool saw_classical = false, saw_superposition = false;
    for (const AssertionSite& site : sites) {
        EXPECT_EQ(site.position, 3u); // before the measures
        if (site.invariant == InvariantClass::kClassical) {
            saw_classical = true;
            EXPECT_EQ(site.qubits, (std::vector<int>{1, 2}));
        }
        if (site.invariant == InvariantClass::kSuperposition) {
            saw_superposition = true;
            EXPECT_EQ(site.qubits, (std::vector<int>{0}));
        }
    }
    EXPECT_TRUE(saw_classical);
    EXPECT_TRUE(saw_superposition);
}

TEST(AcompGeneratorTest, NonCliffordPrefixYieldsNoSites)
{
    QuantumCircuit qc(1, 1);
    qc.t(0);
    qc.measure(0, 0);
    EXPECT_TRUE(generateAssertions(qc).empty());

    const CompiledProgram compiled = autoAssert(qc);
    EXPECT_TRUE(compiled.slots.empty());
    ASSERT_EQ(compiled.variants.size(), 1u);
    SimOptions options;
    options.shots = 64;
    options.seed = 1;
    const PolicyOutcome out = runLowered(compiled, options);
    EXPECT_DOUBLE_EQ(out.pass_rate, 1.0);
    EXPECT_EQ(out.shots_completed, 64);
}

TEST(AcompGeneratorTest, CleanGhzPassesAndIdiomCatchesInjectedFault)
{
    SimOptions options;
    options.shots = 512;
    options.seed = 9;

    const PolicyOutcome clean = runLowered(autoAssert(measuredGhz(4)),
                                           options);
    EXPECT_DOUBLE_EQ(clean.pass_rate, 1.0);

    // The injected x q[1] mid-preparation is exactly the fault a pure
    // tableau walk absorbs into its invariant; the GHZ idiom asserts
    // what the *pattern* promises instead and must flag it.
    QuantumCircuit faulty(4, 4);
    faulty.h(0);
    faulty.cx(0, 1);
    faulty.x(1);
    faulty.cx(1, 2);
    faulty.cx(2, 3);
    faulty.measureAll();
    const CompiledProgram compiled = autoAssert(faulty);
    ASSERT_FALSE(compiled.slots.empty());
    const PolicyOutcome out = runLowered(compiled, options);
    EXPECT_LT(out.pass_rate, 0.1);
}

TEST(AcompCompilerTest, UnsupportedAssertionCarriesSourceAnchor)
{
    QuantumCircuit qc = wPrep(3);
    AssertionSite site;
    site.position = qc.instructions().size();
    site.qubits = {0, 1, 2};
    site.set = std::make_shared<StateSet>(StateSet::pure(wVector(3)));
    site.source_line = 42;
    site.source_col = 7;
    AcompOptions opts;
    opts.lowering = LoweringRequest::kPauliMeasure;
    try {
        compileAssertions(qc, {site}, opts);
        FAIL() << "expected kUnsupportedAssertion";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kUnsupportedAssertion);
        const std::string what = err.what();
        EXPECT_NE(what.find("42"), std::string::npos) << what;
        EXPECT_NE(what.find("slot 0"), std::string::npos) << what;
    }
    // kAuto still lowers it — the unitary designs cover dense targets.
    opts.lowering = LoweringRequest::kAuto;
    const CompiledProgram compiled = compileAssertions(qc, {site}, opts);
    ASSERT_EQ(compiled.slots.size(), 1u);
    EXPECT_NE(compiled.slots[0].form, LoweringForm::kPauliMeasure);
    EXPECT_NE(compiled.slots[0].form, LoweringForm::kPauliSample);
}

TEST(AcompServeTest, AutoAssertJobsExecuteAndReportSlots)
{
    serve::JobSpec spec;
    spec.circuit = measuredGhz(3);
    spec.auto_assert = true;
    spec.shots = 256;
    spec.seed = 3;
    const serve::JobResult result = serve::executeJob(spec);
    EXPECT_EQ(result.status, serve::JobStatus::kOk);
    EXPECT_DOUBLE_EQ(result.pass_rate, 1.0);
    ASSERT_FALSE(result.assertions.empty());
    EXPECT_GE(result.assert_variants, 1);

    // The knob must separate cache keys: same circuit, different key.
    serve::JobSpec plain = spec;
    plain.auto_assert = false;
    EXPECT_NE(serve::jobKey(spec).str(), serve::jobKey(plain).str());
}

TEST(AcompServeTest, AutoAssertConflictsAreTypedBadRequests)
{
    serve::JobSpec with_slots;
    with_slots.circuit = measuredGhz(3);
    with_slots.auto_assert = true;
    with_slots.assert_clbits = {{0}};
    try {
        serve::executeJob(with_slots);
        FAIL() << "expected kBadRequest";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
    }
}

TEST(AcompServeTest, WireRoundTripsAutoAssertFields)
{
    const std::string qasm =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n"
        "h q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\n"
        "measure q[1] -> c[1];\n";
    const std::string line =
        "{\"op\":\"run\",\"id\":\"j1\",\"qasm\":\"" +
        serve::jsonEscape(qasm) +
        "\",\"shots\":128,\"auto_assert\":true,"
        "\"assert_lowering\":\"pauli\"}";
    const serve::WireRequest request = serve::parseRequest(line);
    EXPECT_TRUE(request.spec.auto_assert);
    EXPECT_EQ(request.spec.assert_lowering,
              LoweringRequest::kPauliMeasure);
    EXPECT_FALSE(request.spec.qasm_positions.empty());

    const serve::JobResult result = serve::executeJob(request.spec);
    const std::string encoded = serve::encodeResult("j1", result);
    EXPECT_NE(encoded.find("\"auto_assert\":{"), std::string::npos);
    EXPECT_NE(encoded.find("\"form\":\"pauli\""), std::string::npos);
    const std::string replayed = serve::encodeReplay("j1", result);
    EXPECT_NE(replayed.find("\"auto_assert\":{"), std::string::npos);

    try {
        serve::parseRequest(
            "{\"op\":\"run\",\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\\n\","
            "\"assert_lowering\":\"bogus\"}");
        FAIL() << "expected kBadRequest";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
    }
}

} // namespace
} // namespace qa
