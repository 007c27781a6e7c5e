/**
 * @file
 * Figure 1 reproduction: the accuracy-vs-cost trade-off for checking the
 * GHZ state with assertions of decreasing precision:
 *
 *   precise 3-qubit pure state        (paper: 10 CX)
 *   precise 2-qubit mixed state       (paper:  4 CX)
 *   approximate {|000>, |111>}        (paper:  8 CX)
 *   approximate 4-state expansion     (paper:  4 CX)
 *   NDD approximate parity set        (paper:  3 CX)
 *
 * For each variant we report the measured cost plus what each bug class
 * can still be caught (the accuracy axis of the trade-off).
 */
#include <cmath>
#include <iostream>

#include "algos/states.hpp"
#include "bench_util.hpp"
#include "common/format.hpp"
#include "core/runner.hpp"
#include "linalg/states.hpp"

namespace
{

using namespace qa;
using namespace qa::algos;

struct Variant
{
    std::string name;
    StateSet set;
    std::vector<int> qubits;
    AssertionDesign design;
    std::string paper_cx;
};

std::vector<Variant>
variants()
{
    const CVector ghz = ghzVector(3);
    const CMatrix rho23 = partialTrace(densityFromPure(ghz), {1, 2});
    auto mk = [](int a, int b) {
        CVector v(8);
        v[a] = v[b] = 1.0 / std::sqrt(2.0);
        return v;
    };
    return {
        {"precise 3q pure", StateSet::pure(ghz), {0, 1, 2},
         AssertionDesign::kSwap, "10"},
        {"precise 2q mixed (q1,q2)", StateSet::mixed(rho23), {1, 2},
         AssertionDesign::kSwap, "4"},
        {"approx {000,111}",
         StateSet::approximate(
             {CVector::basisState(8, 0), CVector::basisState(8, 7)}),
         {0, 1, 2}, AssertionDesign::kSwap, "8"},
        {"approx {000,011,100,111}",
         StateSet::approximate(
             {CVector::basisState(8, 0), CVector::basisState(8, 3),
              CVector::basisState(8, 4), CVector::basisState(8, 7)}),
         {0, 1, 2}, AssertionDesign::kSwap, "4"},
        {"NDD approx parity set",
         StateSet::approximate({mk(0, 7), mk(1, 6), mk(3, 4), mk(2, 5)}),
         {0, 1, 2}, AssertionDesign::kNdd, "3"},
    };
}

void
printFigure1()
{
    bench::banner("Figure 1: GHZ assertion granularity trade-off");
    TextTable table({"Assertion", "#CX (paper)", "#SG", "P(err|Bug1)",
                     "P(err|Bug2)"});
    for (const Variant& v : variants()) {
        const CircuitCost cost = estimateAssertionCost(v.set, v.design);
        auto err = [&](int bug) {
            AssertedProgram prog(ghzPrep(3, bug));
            prog.assertState(v.qubits, v.set, v.design);
            return formatDouble(runAssertedExact(prog).slot_error_prob[0],
                                3);
        };
        table.addRow({v.name, bench::vsPaper(cost.cx, v.paper_cx),
                      std::to_string(cost.sg), err(1), err(2)});
    }
    std::cout << table.render();
    std::cout << "Shape: precision buys coefficient sensitivity (Bug1); "
                 "every variant still sees the entanglement bug (Bug2); "
                 "cost falls monotonically along the approximation "
                 "ladder.\n";
}

} // namespace

int
main()
{
    printFigure1();
    return 0;
}
