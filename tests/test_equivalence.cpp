/**
 * @file
 * Reproduction of the paper's circuit-equivalence claims: the systematic
 * designs specialize to the prior work's ad-hoc assertion circuits
 * (Fig. 4 for |+>, Fig. 13 for |0>, Fig. 14 for a|00> + b|11>, and the
 * Appendix A transformation chain).
 */
#include <cmath>

#include <gtest/gtest.h>

#include "circuit/stdgates.hpp"
#include "core/builders.hpp"
#include "core/state_set.hpp"
#include "linalg/states.hpp"
#include "transpile/peephole.hpp"
#include "sim/statevector.hpp"
#include "synth/unitary_synth.hpp"
#include "test_util.hpp"

namespace qa
{
namespace
{

/**
 * Compare two assertion fragments as channels: for a set of probe input
 * states on the tested qubits (ancillas |0>), both circuits must produce
 * the same joint output state.
 */
void
expectFragmentsEquivalent(const QuantumCircuit& a, const QuantumCircuit& b,
                          int data_qubits)
{
    ASSERT_EQ(a.numQubits(), b.numQubits());
    const int n = a.numQubits();
    Rng rng(77);
    for (int probe = 0; probe < 6; ++probe) {
        CVector data = randomState(data_qubits, rng);
        CVector input = data;
        for (int q = data_qubits; q < n; ++q) {
            input = input.tensor(CVector::basisState(2, 0));
        }
        Statevector sa{input}, sb{input};
        for (const Instruction& instr : a.instructions()) {
            if (instr.isGate()) sa.applyGate(instr);
        }
        for (const Instruction& instr : b.instructions()) {
            if (instr.isGate()) sb.applyGate(instr);
        }
        EXPECT_TRUE(sa.amplitudes().equalsUpToPhase(sb.amplitudes(), 1e-8))
            << "probe " << probe;
    }
}

TEST(EquivalenceTest, Fig4PlusStateSwapAssertion)
{
    // Our SWAP-based |+> assertion vs. the prior-work circuit of Fig. 4
    // (Appendix A final form): H(q); CX(q -> anc); CX(anc -> q); H(q)
    // with the ancilla measured. The basis-change U is only constrained
    // on its first column (U|0> = |+>), so the two circuits agree as
    // measurement instruments: identical error probability and
    // identical pass-branch post-state for every input.
    CorrectSubspace ss = analyzeStateSet(
        StateSet::pure(CVector{1.0 / std::sqrt(2), 1.0 / std::sqrt(2)}));
    const BuildContext ctx = slotLayout({0}, 1, {1}, 0, 1);
    QuantumCircuit ours = buildAssertion(
        ss, AssertionDesign::kSwap, ctx, SwapPlacement::kInvBeforePrepAfter);

    QuantumCircuit prior(2, 1);
    prior.h(0);
    prior.cx(0, 1);
    prior.cx(1, 0);
    prior.measure(1, 0);
    prior.h(0);

    Rng rng(99);
    for (int probe = 0; probe < 6; ++probe) {
        const CVector data = randomState(1, rng);
        const CVector input = data.tensor(CVector::basisState(2, 0));
        auto runInstrument = [&](const QuantumCircuit& frag) {
            Statevector sv{input};
            for (const Instruction& instr : frag.instructions()) {
                if (instr.isGate()) sv.applyGate(instr);
            }
            const double p_err = sv.probabilityOne(1);
            Statevector passed = sv;
            passed.collapse(1, 0);
            return std::make_pair(p_err, passed.amplitudes());
        };
        const auto [pe_a, pass_a] = runInstrument(ours);
        const auto [pe_b, pass_b] = runInstrument(prior);
        EXPECT_NEAR(pe_a, pe_b, 1e-9) << "probe " << probe;
        EXPECT_TRUE(pass_a.equalsUpToPhase(pass_b, 1e-8))
            << "probe " << probe;
    }
}

TEST(EquivalenceTest, Fig13ZeroStateNddAssertion)
{
    // NDD |0> assertion: U = Z, i.e. H(anc) CZ H(anc) == CX(q -> anc)
    // (the prior work's classical assertion circuit).
    CorrectSubspace ss =
        analyzeStateSet(StateSet::pure(CVector::basisState(2, 0)));
    const BuildContext ctx = slotLayout({0}, 1, {1}, 0, 1);
    QuantumCircuit ours = buildAssertion(ss, AssertionDesign::kNdd, ctx);

    QuantumCircuit prior(2, 1);
    prior.cx(0, 1);
    prior.measure(1, 0);

    expectFragmentsEquivalent(ours, prior, 1);
}

TEST(EquivalenceTest, Fig14ParityNddAssertion)
{
    // Approximate set {|00>, |11>}: U = Z(x)Z; the NDD circuit equals
    // the prior work's parity check CX(q0->anc) CX(q1->anc).
    CorrectSubspace ss = analyzeStateSet(StateSet::approximate(
        {CVector::basisState(4, 0), CVector::basisState(4, 3)}));
    const BuildContext ctx = slotLayout({0, 1}, 2, {2}, 0, 1);
    QuantumCircuit ours = buildAssertion(ss, AssertionDesign::kNdd, ctx);

    QuantumCircuit prior(3, 1);
    prior.cx(0, 2);
    prior.cx(1, 2);
    prior.measure(2, 0);

    expectFragmentsEquivalent(ours, prior, 2);

    // And the NDD unitary is literally Z(x)Z.
    CMatrix u = ss.projector() * Complex(2.0, 0.0) - CMatrix::identity(4);
    test::expectMatrixNear(u, kron(gates::z(), gates::z()), 1e-10);
}

TEST(EquivalenceTest, AppendixAHMirrorIdentity)
{
    // H(x)H . CX(a,b) . H(x)H == CX(b,a): the transformation the
    // Appendix A proof chains through.
    QuantumCircuit lhs(2);
    lhs.h(0);
    lhs.h(1);
    lhs.cx(0, 1);
    lhs.h(0);
    lhs.h(1);
    QuantumCircuit rhs(2);
    rhs.cx(1, 0);
    EXPECT_TRUE(circuitUnitary(lhs).equalsUpToPhase(circuitUnitary(rhs),
                                                    1e-10));
}

TEST(EquivalenceTest, NddPlusStateIsControlledX)
{
    // U = 2|+><+| - I = X: the NDD |+> assertion is H(anc) CX H(anc).
    CorrectSubspace ss = analyzeStateSet(
        StateSet::pure(CVector{1.0 / std::sqrt(2), 1.0 / std::sqrt(2)}));
    CMatrix u = ss.projector() * Complex(2.0, 0.0) - CMatrix::identity(2);
    test::expectMatrixNear(u, gates::x(), 1e-10);

    const BuildContext ctx = slotLayout({0}, 1, {1}, 0, 1);
    QuantumCircuit ours = buildAssertion(ss, AssertionDesign::kNdd, ctx);
    CircuitCost cost = circuitCost(ours);
    EXPECT_EQ(cost.cx, 1);
}

TEST(EquivalenceTest, GhzParitySetNddIsXXX)
{
    // The paper's Sec. III NDD set for GHZ yields U = X(x)X(x)X.
    auto mk = [](int a, int b) {
        CVector v(8);
        v[a] = v[b] = 1.0 / std::sqrt(2.0);
        return v;
    };
    CorrectSubspace ss = analyzeStateSet(StateSet::approximate(
        {mk(0, 7), mk(1, 6), mk(3, 4), mk(2, 5)}));
    EXPECT_EQ(ss.rank(), 4u);
    CMatrix u = ss.projector() * Complex(2.0, 0.0) - CMatrix::identity(8);
    test::expectMatrixNear(
        u, kron(kron(gates::x(), gates::x()), gates::x()), 1e-9);
}

} // namespace
} // namespace qa
