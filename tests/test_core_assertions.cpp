/**
 * @file
 * Functional tests of the assertion designs: pass/fail semantics for
 * pure, mixed, and approximate assertions across every design and rank
 * regime, non-destructiveness, entanglement preservation, the SWAP
 * state-correction property, auto design selection, and the paper's
 * headline gate counts.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "algos/states.hpp"
#include "common/error.hpp"
#include "core/asserted_program.hpp"
#include "core/runner.hpp"
#include "linalg/gram_schmidt.hpp"
#include "linalg/states.hpp"
#include "synth/state_prep.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

/** Prepare `psi` as the program and assert `set` with `design`. */
double
errorProbability(const CVector& program_state, const StateSet& set,
                 AssertionDesign design)
{
    AssertedProgram prog(prepareState(program_state));
    std::vector<int> qubits;
    for (int q = 0; q < prog.numProgramQubits(); ++q) qubits.push_back(q);
    prog.assertState(qubits, set, design);
    const AssertionOutcomeExact outcome = runAssertedExact(prog);
    return outcome.slot_error_prob[0];
}

class DesignTest : public ::testing::TestWithParam<AssertionDesign>
{};

TEST_P(DesignTest, CorrectPureStatePasses)
{
    Rng rng(300);
    for (int n : {1, 2, 3}) {
        CVector psi = randomState(n, rng);
        EXPECT_NEAR(errorProbability(psi, StateSet::pure(psi), GetParam()),
                    0.0, 1e-7)
            << "n = " << n;
    }
}

TEST_P(DesignTest, OrthogonalPureStateAlwaysFails)
{
    Rng rng(301);
    for (int n : {1, 2, 3}) {
        CVector psi = randomState(n, rng);
        auto basis = completeBasis({psi}, size_t(1) << n);
        EXPECT_NEAR(errorProbability(basis[1], StateSet::pure(psi),
                                     GetParam()),
                    1.0, 1e-7)
            << "n = " << n;
    }
}

TEST_P(DesignTest, WrongStateFailsWithOverlapProbability)
{
    // Error probability is exactly 1 - |<psi|phi>|^2 for pure assertion.
    Rng rng(302);
    for (int trial = 0; trial < 3; ++trial) {
        CVector asserted = randomState(2, rng);
        CVector actual = randomState(2, rng);
        const double overlap = fidelity(asserted, actual);
        EXPECT_NEAR(errorProbability(actual, StateSet::pure(asserted),
                                     GetParam()),
                    1.0 - overlap, 1e-7)
            << "trial " << trial;
    }
}

TEST_P(DesignTest, MemberOfApproximateSetPasses)
{
    // Membership: any state in the span passes, including combinations.
    std::vector<CVector> set = {CVector::basisState(8, 0),
                                CVector::basisState(8, 7)};
    EXPECT_NEAR(errorProbability(algos::ghzVector(3),
                                 StateSet::approximate(set), GetParam()),
                0.0, 1e-7);
    EXPECT_NEAR(errorProbability(CVector::basisState(8, 7),
                                 StateSet::approximate(set), GetParam()),
                0.0, 1e-7);
}

TEST_P(DesignTest, NonMemberOfApproximateSetFails)
{
    std::vector<CVector> set = {CVector::basisState(8, 0),
                                CVector::basisState(8, 7)};
    // |011> is orthogonal to the span: always caught.
    EXPECT_NEAR(errorProbability(CVector::basisState(8, 3),
                                 StateSet::approximate(set), GetParam()),
                1.0, 1e-7);
    // A half-in/half-out state is caught with probability 1/2.
    CVector half(8);
    half[0] = half[3] = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(errorProbability(half, StateSet::approximate(set),
                                 GetParam()),
                0.5, 1e-7);
}

TEST_P(DesignTest, RankRegimeSweep)
{
    // Every rank 1..2^n-1 must be assertable; states inside the subspace
    // pass, orthogonal states fail.
    const int n = 3;
    const size_t dim = 8;
    Rng rng(303);
    for (size_t t = 1; t < dim; ++t) {
        std::vector<CVector> seed;
        for (size_t i = 0; i < t; ++i) seed.push_back(randomState(n, rng));
        std::vector<CVector> basis = orthonormalize(seed);
        while (basis.size() < t) {
            basis.push_back(randomState(n, rng));
            basis = orthonormalize(basis);
        }
        const StateSet set = StateSet::approximate(basis);

        // A random superposition inside the subspace.
        CVector inside(dim);
        for (const CVector& b : basis) {
            inside += b * Complex(rng.normal(), rng.normal());
        }
        inside = inside.normalized();
        EXPECT_NEAR(errorProbability(inside, set, GetParam()), 0.0, 1e-6)
            << "t = " << t;

        // A state in the orthogonal complement.
        const std::vector<CVector> full = completeBasis(basis, dim);
        EXPECT_NEAR(errorProbability(full[t], set, GetParam()), 1.0, 1e-6)
            << "t = " << t;
    }
}

TEST_P(DesignTest, FullRankIsUnassertable)
{
    std::vector<CVector> everything;
    for (size_t i = 0; i < 4; ++i) {
        everything.push_back(CVector::basisState(4, i));
    }
    AssertedProgram prog(algos::bellPrep(algos::BellKind::kPhiPlus));
    EXPECT_THROW(prog.assertState({0, 1},
                                  StateSet::approximate(everything),
                                  GetParam()),
                 UserError);
}

TEST_P(DesignTest, NonDestructiveOnPass)
{
    // Asserting the correct state twice: the second assertion must also
    // pass with certainty (the state survived the first).
    Rng rng(304);
    CVector psi = randomState(2, rng);
    AssertedProgram prog(prepareState(psi));
    prog.assertState({0, 1}, StateSet::pure(psi), GetParam());
    prog.assertState({0, 1}, StateSet::pure(psi), GetParam());
    const AssertionOutcomeExact outcome = runAssertedExact(prog);
    EXPECT_NEAR(outcome.slot_error_prob[0], 0.0, 1e-7);
    EXPECT_NEAR(outcome.slot_error_prob[1], 0.0, 1e-7);
    EXPECT_NEAR(outcome.pass_prob, 1.0, 1e-7);
}

TEST_P(DesignTest, MixedAssertionPreservesEntanglement)
{
    // GHZ program; assert the reduced state of qubits (1, 2); then a
    // precise 3-qubit assertion must still pass: the entanglement with
    // qubit 0 survived the mixed assertion.
    const CVector ghz = algos::ghzVector(3);
    const CMatrix rho23 = partialTrace(densityFromPure(ghz), {1, 2});

    AssertedProgram prog(algos::ghzPrep(3));
    prog.assertState({1, 2}, StateSet::mixed(rho23), GetParam());
    prog.assertState({0, 1, 2}, StateSet::pure(ghz),
                     AssertionDesign::kSwap);
    const AssertionOutcomeExact outcome = runAssertedExact(prog);
    EXPECT_NEAR(outcome.slot_error_prob[0], 0.0, 1e-7);
    EXPECT_NEAR(outcome.slot_error_prob[1], 0.0, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignTest,
    ::testing::Values(AssertionDesign::kSwap, AssertionDesign::kOr,
                      AssertionDesign::kNdd, AssertionDesign::kProq),
    [](const ::testing::TestParamInfo<AssertionDesign>& param_info) {
        switch (param_info.param) {
          case AssertionDesign::kSwap: return "Swap";
          case AssertionDesign::kOr: return "Or";
          case AssertionDesign::kNdd: return "Ndd";
          case AssertionDesign::kProq: return "Proq";
          default: return "Other";
        }
    });

TEST(SwapPlacementTest, AllFourVariantsAgree)
{
    Rng rng(305);
    const CVector psi = randomState(2, rng);
    const CVector wrong = randomState(2, rng);
    const double expected = 1.0 - fidelity(psi, wrong);
    for (SwapPlacement placement :
         {SwapPlacement::kInvBeforePrepAfter,
          SwapPlacement::kInvBeforePrepBefore,
          SwapPlacement::kInvAfterPrepBefore,
          SwapPlacement::kInvAfterPrepAfter}) {
        AssertedProgram prog(prepareState(wrong));
        prog.assertState({0, 1}, StateSet::pure(psi),
                         AssertionDesign::kSwap, placement);
        const AssertionOutcomeExact outcome = runAssertedExact(prog);
        EXPECT_NEAR(outcome.slot_error_prob[0], expected, 1e-7);
    }
}

TEST(SwapPlacementTest, CorrectionProperty)
{
    // The SWAP design "corrects" the tested qubits to the asserted
    // state even when the assertion fails (Sec. IV-E contrast): a
    // follow-up assertion of the same state always passes.
    Rng rng(306);
    const CVector psi = randomState(2, rng);
    const CVector wrong = randomState(2, rng);
    AssertedProgram prog(prepareState(wrong));
    prog.assertState({0, 1}, StateSet::pure(psi), AssertionDesign::kSwap);
    prog.assertState({0, 1}, StateSet::pure(psi), AssertionDesign::kSwap);
    const AssertionOutcomeExact outcome = runAssertedExact(prog);
    EXPECT_GT(outcome.slot_error_prob[0], 0.1);
    EXPECT_NEAR(outcome.slot_error_prob[1], 0.0, 1e-7);
}

TEST(SwapPlacementTest, NddDoesNotCorrect)
{
    // NDD projects instead of replacing: after a failed NDD assertion
    // the state is the projection onto the incorrect subspace, so a
    // follow-up assertion fails deterministically on that branch.
    CVector psi = CVector::basisState(4, 0);
    CVector wrong(4);
    wrong[0] = std::sqrt(0.5);
    wrong[3] = std::sqrt(0.5);
    AssertedProgram prog(prepareState(wrong));
    prog.assertState({0, 1}, StateSet::pure(psi), AssertionDesign::kNdd);
    prog.assertState({0, 1}, StateSet::pure(psi), AssertionDesign::kNdd);
    const AssertionOutcomeExact outcome = runAssertedExact(prog);
    EXPECT_NEAR(outcome.slot_error_prob[0], 0.5, 1e-7);
    // Second slot errors exactly when the first did.
    EXPECT_NEAR(outcome.slot_error_prob[1], 0.5, 1e-7);
}

TEST(AutoSelectionTest, PicksCheapestDesign)
{
    const StateSet parity_set = StateSet::approximate(
        {algos::ghzVector(3),
         [] {
             CVector v(8);
             v[1] = v[6] = 1.0 / std::sqrt(2.0);
             return v;
         }(),
         [] {
             CVector v(8);
             v[2] = v[5] = 1.0 / std::sqrt(2.0);
             return v;
         }(),
         [] {
             CVector v(8);
             v[3] = v[4] = 1.0 / std::sqrt(2.0);
             return v;
         }()});

    AssertedProgram prog(algos::ghzPrep(3));
    prog.assertState({0, 1, 2}, parity_set, AssertionDesign::kAuto);
    const auto& slot = prog.slots()[0];
    // The parity set's NDD circuit costs 3 CX; nothing beats it.
    EXPECT_EQ(slot.design, AssertionDesign::kNdd);
    EXPECT_EQ(slot.cost.cx, 3);

    int best = estimateAssertionCost(parity_set, AssertionDesign::kSwap).cx;
    best = std::min(best,
                    estimateAssertionCost(parity_set,
                                          AssertionDesign::kOr).cx);
    EXPECT_LE(slot.cost.cx, best);

    // kAuto must insert exactly what the cheapest explicit design
    // inserts. GHZ-3 on qubits {2, 3, 4} of a 5-qubit program leaves
    // the free qubits 0 and 1 below the tested ones, so the candidates
    // must be costed on the real qubit labels.
    QuantumCircuit ghz_on_top(5);
    ghz_on_top.h(2);
    ghz_on_top.cx(2, 3);
    ghz_on_top.cx(3, 4);
    struct Input
    {
        QuantumCircuit program;
        std::vector<int> qubits;
        StateSet set;
    };
    const Input inputs[] = {
        {algos::ghzPrep(3), {0, 1, 2}, parity_set},
        {ghz_on_top, {2, 3, 4}, StateSet::pure(algos::ghzVector(3))}};
    for (const Input& in : inputs) {
        AssertedProgram picked(in.program);
        picked.assertState(in.qubits, in.set, AssertionDesign::kAuto);
        AssertionDesign cheapest = AssertionDesign::kAuto;
        CircuitCost cheapest_cost;
        for (AssertionDesign design :
             {AssertionDesign::kSwap, AssertionDesign::kOr,
              AssertionDesign::kNdd}) {
            AssertedProgram pinned(in.program);
            pinned.assertState(in.qubits, in.set, design);
            const CircuitCost cost = pinned.slots()[0].cost;
            if (cheapest == AssertionDesign::kAuto ||
                cost.cx < cheapest_cost.cx ||
                (cost.cx == cheapest_cost.cx &&
                 cost.sg < cheapest_cost.sg)) {
                cheapest = design;
                cheapest_cost = cost;
            }
        }
        const AssertedProgram::Slot& auto_slot = picked.slots()[0];
        EXPECT_EQ(auto_slot.design, cheapest);
        EXPECT_EQ(auto_slot.cost.cx, cheapest_cost.cx);
        EXPECT_EQ(auto_slot.cost.sg, cheapest_cost.sg);
        EXPECT_EQ(auto_slot.cost.ancilla, cheapest_cost.ancilla);
        EXPECT_EQ(auto_slot.cost.measure, cheapest_cost.measure);
    }
}

TEST(CostTest, PaperTableOneNumbers)
{
    const CVector ghz = algos::ghzVector(3);
    const CMatrix rho23 = partialTrace(densityFromPure(ghz), {1, 2});

    CircuitCost precise =
        estimateAssertionCost(StateSet::pure(ghz), AssertionDesign::kSwap);
    EXPECT_EQ(precise.cx, 10);
    EXPECT_EQ(precise.sg, 2);
    EXPECT_EQ(precise.ancilla, 3);
    EXPECT_EQ(precise.measure, 3);

    CircuitCost mixed = estimateAssertionCost(StateSet::mixed(rho23),
                                              AssertionDesign::kSwap);
    EXPECT_EQ(mixed.cx, 4);
    EXPECT_EQ(mixed.sg, 0);
    EXPECT_EQ(mixed.ancilla, 1);
    EXPECT_EQ(mixed.measure, 1);

    CircuitCost approx2 = estimateAssertionCost(
        StateSet::approximate(
            {CVector::basisState(8, 0), CVector::basisState(8, 7)}),
        AssertionDesign::kSwap);
    EXPECT_EQ(approx2.cx, 8);

    CircuitCost approx4 = estimateAssertionCost(
        StateSet::approximate(
            {CVector::basisState(8, 0), CVector::basisState(8, 3),
             CVector::basisState(8, 4), CVector::basisState(8, 7)}),
        AssertionDesign::kSwap);
    EXPECT_EQ(approx4.cx, 4);

    CircuitCost proq =
        estimateAssertionCost(StateSet::pure(ghz), AssertionDesign::kProq);
    EXPECT_EQ(proq.cx, 4);
    EXPECT_EQ(proq.sg, 2);
    EXPECT_EQ(proq.ancilla, 0);
    EXPECT_EQ(proq.measure, 3);
}

TEST(AssertedProgramTest, SlotBookkeeping)
{
    AssertedProgram prog(algos::ghzPrep(3));
    const int s0 = prog.assertState({0, 1, 2},
                                    StateSet::pure(algos::ghzVector(3)),
                                    AssertionDesign::kSwap);
    const int s1 = prog.assertState(
        {1, 2},
        StateSet::mixed(partialTrace(
            densityFromPure(algos::ghzVector(3)), {1, 2})),
        AssertionDesign::kSwap);
    prog.measureProgram();

    EXPECT_EQ(s0, 0);
    EXPECT_EQ(s1, 1);
    ASSERT_EQ(prog.slots().size(), 2u);
    EXPECT_EQ(prog.slots()[0].ancillas.size(), 3u);
    EXPECT_EQ(prog.slots()[1].ancillas.size(), 1u);
    EXPECT_EQ(prog.programClbits().size(), 3u);
    EXPECT_EQ(prog.assertionClbits().size(), 4u);

    // All clbits distinct.
    std::vector<int> all = prog.assertionClbits();
    all.insert(all.end(), prog.programClbits().begin(),
               prog.programClbits().end());
    std::sort(all.begin(), all.end());
    EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
}

TEST(AssertedProgramTest, Validation)
{
    AssertedProgram prog(algos::ghzPrep(3));
    EXPECT_THROW(prog.assertState({0}, StateSet::pure(algos::ghzVector(3))),
                 UserError);
    EXPECT_THROW(prog.assertState({0, 1, 5},
                                  StateSet::pure(algos::ghzVector(3))),
                 UserError);

    QuantumCircuit measured(1, 1);
    measured.measure(0, 0);
    EXPECT_THROW(AssertedProgram{measured}, UserError);
}

TEST(AssertedProgramTest, PostSelectionFiltersErrors)
{
    // Program in superposition of correct/incorrect: post-selected
    // program counts contain only the asserted state.
    CVector half(4);
    half[0] = half[1] = 1.0 / std::sqrt(2.0); // (|00> + |01>)/sqrt2
    AssertedProgram prog(prepareState(half));
    prog.assertState({0, 1}, StateSet::pure(CVector::basisState(4, 0)),
                     AssertionDesign::kSwap);
    prog.measureProgram();
    const AssertionOutcomeExact outcome = runAssertedExact(prog);
    EXPECT_NEAR(outcome.slot_error_prob[0], 0.5, 1e-7);
    EXPECT_NEAR(outcome.program_dist_passed.probability("00"), 0.5, 1e-7);
    EXPECT_NEAR(outcome.program_dist_passed.probability("01"), 0.0, 1e-7);
}

TEST(AssertedProgramTest, SampledRunAgreesWithExact)
{
    AssertedProgram prog(algos::ghzPrep(3, /*bug=*/2));
    prog.assertState({0, 1, 2}, StateSet::pure(algos::ghzVector(3)),
                     AssertionDesign::kSwap);
    prog.measureProgram();

    const AssertionOutcomeExact exact = runAssertedExact(prog);
    SimOptions options;
    options.shots = 20000;
    options.seed = 424242;
    const AssertionOutcome sampled = runAsserted(prog, options);
    EXPECT_NEAR(sampled.slot_error_rate[0], exact.slot_error_prob[0],
                0.02);
    EXPECT_NEAR(sampled.pass_rate, exact.pass_prob, 0.02);
}

} // namespace
} // namespace qa
