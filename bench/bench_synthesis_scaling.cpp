/**
 * @file
 * Sec. VI-B reproduction: the asymptotic argument behind the SWAP design
 * being affordable. State preparation costs O(2^n) CX while generic
 * n-qubit unitary synthesis costs O(4^n) CX, so asserting a known state
 * is much cheaper than the program that computed it; the SWAP and OR
 * overheads on top scale linearly.
 */
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/format.hpp"
#include "core/asserted_program.hpp"
#include "linalg/states.hpp"
#include "synth/state_prep.hpp"
#include "synth/unitary_synth.hpp"
#include "transpile/peephole.hpp"

namespace
{

using namespace qa;

void
printScaling()
{
    Rng rng(7);
    bench::banner("Sec. VI-B: state-prep vs generic-unitary CX scaling");
    TextTable table({"n", "state prep #CX", "2^n", "generic unitary #CX",
                     "4^n", "SWAP assertion #CX", "OR assertion #CX"});
    for (int n = 1; n <= 6; ++n) {
        const CVector psi = randomState(n, rng);
        const QuantumCircuit prep =
            optimizeAndLower(prepareState(psi));

        int unitary_cx = -1;
        if (n <= 4) {
            const CMatrix u = randomUnitary(size_t(1) << n, rng);
            unitary_cx = optimizeAndLower(synthesizeUnitary(u)).countCx();
        }
        const CircuitCost swap_cost =
            estimateAssertionCost(StateSet::pure(psi),
                                  AssertionDesign::kSwap);
        const CircuitCost or_cost = estimateAssertionCost(
            StateSet::pure(psi), AssertionDesign::kOr);

        table.addRow({std::to_string(n),
                      std::to_string(prep.countCx()),
                      std::to_string(1 << n),
                      unitary_cx < 0 ? "-" : std::to_string(unitary_cx),
                      std::to_string(1 << (2 * n)),
                      std::to_string(swap_cost.cx),
                      std::to_string(or_cost.cx)});
    }
    std::cout << table.render();
    std::cout << "Shape: state-prep CX tracks O(2^n); generic unitary "
                 "CX tracks O(4^n); the SWAP assertion adds 2n CX of "
                 "swap overhead on top of prep + unprep.\n";

    bench::banner("Structured states stay cheap at any n");
    TextTable structured({"state", "prep #CX", "SWAP assertion #CX"});
    for (int n : {3, 5, 7}) {
        CVector ghz(size_t(1) << n);
        ghz[0] = ghz[ghz.dim() - 1] = 1.0 / std::sqrt(2.0);
        const QuantumCircuit prep = optimizeAndLower(prepareState(ghz));
        const CircuitCost cost = estimateAssertionCost(
            StateSet::pure(ghz), AssertionDesign::kSwap);
        structured.addRow({"GHZ n=" + std::to_string(n),
                           std::to_string(prep.countCx()),
                           std::to_string(cost.cx)});
    }
    std::cout << structured.render();
}

} // namespace

int
main()
{
    printScaling();
    return 0;
}
