/**
 * @file
 * Figures 15-16 / Sec. IX-A reproduction: the 4-qubit QPE debugging case
 * study. One precise assertion per slot (V1..V6 precalculated from the
 * bug-free program) localizes Bug1 (missing loop index) to the gates
 * between slots 2-3 and Bug2 (cu3 -> u3) to slots 1-2, and the
 * mixed-state / approximate variants reproduce the Sec. IX-A2/A3
 * capability differences and cost savings.
 */
#include <cmath>
#include <iostream>

#include "algos/qpe.hpp"
#include "bench_util.hpp"
#include "common/format.hpp"
#include "core/runner.hpp"
#include "linalg/states.hpp"

namespace
{

using namespace qa;
using namespace qa::algos;

constexpr double kLambda = M_PI / 8;

double
slotError(QpeBug bug, int slot, AssertionDesign design,
          CircuitCost* cost = nullptr)
{
    QpeProgram qpe(4, kLambda, bug);
    QpeProgram clean(4, kLambda);
    QuantumCircuit prefix(qpe.numQubits());
    std::vector<int> ident{0, 1, 2, 3, 4};
    for (int s = 0; s < slot; ++s) prefix.compose(qpe.stage(s), ident);
    AssertedProgram prog(prefix);
    prog.assertState({0, 1, 2, 3, 4},
                     StateSet::pure(clean.expectedStateAtSlot(slot)),
                     design);
    if (cost != nullptr) *cost = prog.slots()[0].cost;
    return runAssertedExact(prog).slot_error_prob[0];
}

void
printSlotTable()
{
    bench::banner("Sec. IX-A1: per-slot precise pure-state assertion "
                  "error probability (SWAP design)");
    TextTable table({"Slot", "clean", "Bug1 (fixed angle)",
                     "Bug2 (missing control)", "#CX of assertion"});
    for (int slot = 1; slot <= 6; ++slot) {
        CircuitCost cost;
        const double clean = slotError(QpeBug::kNone, slot,
                                       AssertionDesign::kSwap, &cost);
        const double bug1 =
            slotError(QpeBug::kFixedAngle, slot, AssertionDesign::kSwap);
        const double bug2 = slotError(QpeBug::kMissingControl, slot,
                                      AssertionDesign::kSwap);
        table.addRow({std::to_string(slot), formatDouble(clean, 4),
                      formatDouble(bug1, 4), formatDouble(bug2, 4),
                      std::to_string(cost.cx)});
    }
    std::cout << table.render();
    std::cout << "Paper: Bug1 passes slots 1-2 and fails 3+; Bug2 "
                 "passes only slot 1 -> the failing slot pinpoints the "
                 "buggy gate range.\n";
}

void
printMixedAndApproximate()
{
    QpeProgram clean(4, kLambda);
    const CVector v5 = clean.expectedStateAtSlot(5);

    bench::banner("Sec. IX-A2/A3: slot-5 assertion variants "
                  "(cost vs. bug sensitivity)");
    TextTable table({"Variant", "#CX", "clean", "Bug1", "Bug2"});

    auto runPrefix = [&](QpeBug bug, const StateSet& set,
                         const std::vector<int>& qubits,
                         CircuitCost* cost) {
        QpeProgram qpe(4, kLambda, bug);
        QuantumCircuit prefix(qpe.numQubits());
        std::vector<int> ident{0, 1, 2, 3, 4};
        for (int s = 0; s < 5; ++s) prefix.compose(qpe.stage(s), ident);
        AssertedProgram prog(prefix);
        prog.assertState(qubits, set, AssertionDesign::kSwap);
        if (cost != nullptr) *cost = prog.slots()[0].cost;
        return runAssertedExact(prog).slot_error_prob[0];
    };

    // Precise 5-qubit pure state.
    {
        const StateSet set = StateSet::pure(v5);
        CircuitCost cost;
        const double clean_err =
            runPrefix(QpeBug::kNone, set, {0, 1, 2, 3, 4}, &cost);
        table.addRow(
            {"precise 5q pure (paper: 26 CX)", std::to_string(cost.cx),
             formatDouble(clean_err, 3),
             formatDouble(
                 runPrefix(QpeBug::kFixedAngle, set, {0, 1, 2, 3, 4},
                           nullptr), 3),
             formatDouble(
                 runPrefix(QpeBug::kMissingControl, set, {0, 1, 2, 3, 4},
                           nullptr), 3)});
    }
    // Mixed 4-qubit state of the counting register.
    {
        const StateSet set = StateSet::mixed(
            partialTrace(densityFromPure(v5), {0, 1, 2, 3}));
        CircuitCost cost;
        const double clean_err =
            runPrefix(QpeBug::kNone, set, {0, 1, 2, 3}, &cost);
        table.addRow(
            {"mixed 4q counting (paper: 20 CX)", std::to_string(cost.cx),
             formatDouble(clean_err, 3),
             formatDouble(runPrefix(QpeBug::kFixedAngle, set,
                                    {0, 1, 2, 3}, nullptr), 3),
             formatDouble(runPrefix(QpeBug::kMissingControl, set,
                                    {0, 1, 2, 3}, nullptr), 3)});
    }
    // Approximate two-member set of the slot-5 branches.
    {
        CVector branch0(32), branch1(32);
        for (size_t i = 0; i < 32; i += 2) {
            branch0[i] = v5[i] * std::sqrt(2.0);
            branch1[i + 1] = v5[i + 1] * std::sqrt(2.0);
        }
        const StateSet set = StateSet::approximate({branch0, branch1});
        CircuitCost cost;
        const double clean_err =
            runPrefix(QpeBug::kNone, set, {0, 1, 2, 3, 4}, &cost);
        table.addRow(
            {"approx {|++++>|0>, |theta4>|1>}", std::to_string(cost.cx),
             formatDouble(clean_err, 3),
             formatDouble(runPrefix(QpeBug::kFixedAngle, set,
                                    {0, 1, 2, 3, 4}, nullptr), 3),
             formatDouble(runPrefix(QpeBug::kMissingControl, set,
                                    {0, 1, 2, 3, 4}, nullptr), 3)});
    }
    std::cout << table.render();
    std::cout << "Paper: mixed assertion is cheaper but misses Bug2 "
                 "(counting register stays |++++>); the approximate set "
                 "catches both bugs below the precise cost.\n";
}

} // namespace

int
main()
{
    printSlotTable();
    printMixedAndApproximate();
    return 0;
}
