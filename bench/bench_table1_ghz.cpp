/**
 * @file
 * Table I reproduction: assertion coverage and circuit cost for the GHZ
 * state across the six assertion schemes, against the paper's Bug1
 * (swapped u2 arguments -> sign-flipped coefficient) and Bug2 (reordered
 * CX chain -> wrong entanglement).
 */
#include <cmath>
#include <iostream>

#include "algos/states.hpp"
#include "baselines/stat_assertion.hpp"
#include "bench_util.hpp"
#include "common/format.hpp"
#include "core/runner.hpp"
#include "linalg/states.hpp"

namespace
{

using namespace qa;
using namespace qa::algos;

/** Detection verdict for one design against one bug. */
std::string
detects(AssertionDesign design, const StateSet& set,
        const std::vector<int>& qubits, int bug)
{
    AssertedProgram prog(ghzPrep(3, bug));
    prog.assertState(qubits, set, design);
    const double err = runAssertedExact(prog).slot_error_prob[0];
    return err > 1e-6 ? "True" : "False";
}

void
printTable1()
{
    const CVector ghz = ghzVector(3);
    const CMatrix rho23 = partialTrace(densityFromPure(ghz), {1, 2});
    auto mk = [](int a, int b) {
        CVector v(8);
        v[a] = v[b] = 1.0 / std::sqrt(2.0);
        return v;
    };
    const StateSet ndd_parity = StateSet::approximate(
        {mk(0, 7), mk(1, 6), mk(3, 4), mk(2, 5)});

    struct Row
    {
        std::string name;
        StateSet set;
        std::vector<int> qubits;
        AssertionDesign design;
        std::string paper; // "cx/sg/anc/meas"
    };
    const std::vector<Row> rows = {
        {"Proq [30]", StateSet::pure(ghz), {0, 1, 2},
         AssertionDesign::kProq, "4/2/0/3"},
        {"SWAP-based precise", StateSet::pure(ghz), {0, 1, 2},
         AssertionDesign::kSwap, "10/2/3/3"},
        {"SWAP-based mixed state", StateSet::mixed(rho23), {1, 2},
         AssertionDesign::kSwap, "4/0/1/1"},
        {"NDD-based approximate", ndd_parity, {0, 1, 2},
         AssertionDesign::kNdd, "3/2/1/1"},
    };

    bench::banner("Table I: GHZ assertion coverage and circuit cost");
    TextTable table({"Assertion type", "Bug1", "Bug2", "#CX", "#SG",
                     "#ancilla", "#measure"});

    // Stat baseline row: chi-square on the measured distribution.
    {
        auto stat = [&](int bug) {
            StatAssertionOptions options;
            options.seed = 1234;
            return statAssertState(ghzPrep(3, bug), {0, 1, 2}, ghz,
                                   options)
                           .rejected
                       ? std::string("True")
                       : std::string("False");
        };
        table.addRow({"Stat [28] (destructive)", stat(1), stat(2), "N/A",
                      "N/A", "N/A", "N/A"});
    }
    table.addRow({"Primitive [32]", "N/A (cannot express GHZ)", "N/A",
                  "N/A", "N/A", "N/A", "N/A"});

    for (const Row& row : rows) {
        const CircuitCost cost = estimateAssertionCost(row.set, row.design);
        table.addRow({row.name,
                      detects(row.design, row.set, row.qubits, 1),
                      detects(row.design, row.set, row.qubits, 2),
                      std::to_string(cost.cx), std::to_string(cost.sg),
                      std::to_string(cost.ancilla),
                      std::to_string(cost.measure)});
    }
    std::cout << table.render();
    std::cout << "Paper (cx/sg/anc/meas): Proq 4/2/0/3, SWAP precise "
                 "10/2/3/3, SWAP mixed 4/0/1/1, NDD approx 3/2/1/1\n";
    std::cout << "Paper detection: Stat F/T, Primitive N/A, Proq T/T, "
                 "SWAP precise T/T, SWAP mixed F/T, NDD approx T/T\n";
}

} // namespace

int
main()
{
    printTable1();
    return 0;
}
