/**
 * @file
 * Appendix D reproduction: debugging the Fourier-space controlled adder
 * recursion. The doubly-controlled branch's copy-paste bug (qr[j]
 * instead of qr[i]) is invisible to the 0/1-control variants and is
 * caught by precise assertions placed after the adder layer; the
 * mixed-state assertion on the data register alone also detects it.
 */
#include <cmath>
#include <iostream>

#include "algos/adder.hpp"
#include "algos/qft.hpp"
#include "bench_util.hpp"
#include "common/format.hpp"
#include "core/runner.hpp"
#include "linalg/states.hpp"
#include "sim/statevector.hpp"

namespace
{

using namespace qa;
using namespace qa::algos;

constexpr int kWidth = 3;
constexpr uint64_t kInitial = 4;
constexpr uint64_t kConstant = 3;

QuantumCircuit
adderPrefix(int num_controls, bool controls_on, bool buggy)
{
    QuantumCircuit qc(kWidth + num_controls);
    std::vector<int> data{0, 1, 2};
    std::vector<int> controls;
    for (int c = 0; c < num_controls; ++c) controls.push_back(kWidth + c);
    for (int q = 0; q < kWidth; ++q) {
        if ((kInitial >> (kWidth - 1 - q)) & 1) qc.x(q);
    }
    if (controls_on) {
        for (int c : controls) qc.x(c);
    }
    appendQft(qc, data);
    appendControlledAdder(qc, controls, data, kConstant, buggy);
    return qc;
}

void
printFunctionalCheck()
{
    bench::banner("Appendix D: controlled adder functional results "
                  "(initial=4, a=3)");
    TextTable table({"#controls", "controls", "clean result",
                     "buggy result"});
    for (int nc : {0, 1, 2}) {
        for (bool on : {false, true}) {
            if (nc == 0 && !on) continue;
            auto result = [&](bool buggy) {
                QuantumCircuit qc = adderPrefix(nc, on, buggy);
                std::vector<int> data{0, 1, 2};
                appendIqft(qc, data);
                const auto probs =
                    finalState(qc).basisProbabilities(1e-6);
                if (probs.size() != 1) return std::string("superposed!");
                return formatBits(probs.begin()->first >> nc, kWidth);
            };
            table.addRow({std::to_string(nc), on ? "on" : "off",
                          result(false), result(true)});
        }
    }
    std::cout << table.render();
    std::cout << "Shape: the bug only fires in the doubly-controlled "
                 "branch with both controls on.\n";
}

void
printAssertionDetection()
{
    bench::banner("Appendix D: assertion-based detection after the "
                  "adder layer");
    TextTable table({"assertion", "clean P(err)", "buggy P(err)",
                     "#CX"});

    // Precise full-state assertion (controls on -> bug active).
    {
        const CVector expected =
            finalState(adderPrefix(2, true, false)).amplitudes();
        auto err = [&](bool buggy, CircuitCost* cost) {
            AssertedProgram prog(adderPrefix(2, true, buggy));
            prog.assertState({0, 1, 2, 3, 4}, StateSet::pure(expected),
                             AssertionDesign::kSwap);
            if (cost != nullptr) *cost = prog.slots()[0].cost;
            return runAssertedExact(prog).slot_error_prob[0];
        };
        CircuitCost cost;
        const double clean = err(false, &cost);
        table.addRow({"precise 5q pure (SWAP)", formatDouble(clean, 3),
                      formatDouble(err(true, nullptr), 3),
                      std::to_string(cost.cx)});
    }

    // Mixed-state assertion on the data register with superposed
    // controls (data is entangled with the controls).
    {
        QuantumCircuit superposed(kWidth + 2);
        std::vector<int> data{0, 1, 2};
        std::vector<int> controls{3, 4};
        superposed.x(0);
        superposed.h(3);
        superposed.h(4);
        appendQft(superposed, data);
        QuantumCircuit clean_prog = superposed;
        appendControlledAdder(clean_prog, controls, data, kConstant,
                              false);
        QuantumCircuit buggy_prog = superposed;
        appendControlledAdder(buggy_prog, controls, data, kConstant,
                              true);

        const CMatrix rho_data = partialTrace(
            densityFromPure(finalState(clean_prog).amplitudes()),
            {0, 1, 2});
        auto err = [&](const QuantumCircuit& prog_circ,
                       CircuitCost* cost) {
            AssertedProgram prog(prog_circ);
            prog.assertState({0, 1, 2}, StateSet::mixed(rho_data),
                             AssertionDesign::kNdd);
            if (cost != nullptr) *cost = prog.slots()[0].cost;
            return runAssertedExact(prog).slot_error_prob[0];
        };
        CircuitCost cost;
        const double clean = err(clean_prog, &cost);
        table.addRow({"mixed 3q data register (NDD)",
                      formatDouble(clean, 3),
                      formatDouble(err(buggy_prog, nullptr), 3),
                      std::to_string(cost.cx)});
    }

    std::cout << table.render();
    std::cout << "Paper: the recursion bug produces an incorrect "
                 "entangled state detectable by precise assertions and "
                 "by mixed-state assertions on the data subset.\n";
}

void
printLocalization()
{
    // Assert after each rotation layer of the buggy doubly-controlled
    // adder: the first divergent layer localizes the bug (the paper's
    // "asserting after the second rz gate suffices" observation).
    bench::banner("Appendix D: per-layer localization (buggy 2-control "
                  "adder)");
    TextTable table({"after paper loop i", "P(err)"});
    std::vector<int> data{0, 1, 2};
    std::vector<int> controls{3, 4};
    for (int upto = kWidth - 1; upto >= 0; --upto) {
        // Build prefix with layers i = width-1 .. upto.
        auto build = [&](bool buggy) {
            QuantumCircuit qc(kWidth + 2);
            for (int q = 0; q < kWidth; ++q) {
                if ((kInitial >> (kWidth - 1 - q)) & 1) qc.x(q);
            }
            qc.x(3);
            qc.x(4);
            appendQft(qc, data);
            for (int i = kWidth - 1; i >= upto; --i) {
                // One layer of the paper's outer loop.
                for (int j = i; j >= 0; --j) {
                    if (!((kConstant >> j) & 1)) continue;
                    const double angle =
                        M_PI / double(uint64_t(1) << (i - j));
                    const int tq = buggy ? data[j] : data[i];
                    qc.ccrz(3, 4, tq, angle);
                }
            }
            return qc;
        };
        const CVector expected = finalState(build(false)).amplitudes();
        AssertedProgram prog(build(true));
        prog.assertState({0, 1, 2, 3, 4}, StateSet::pure(expected),
                         AssertionDesign::kSwap);
        table.addRow({"i = " + std::to_string(upto),
                      formatDouble(
                          runAssertedExact(prog).slot_error_prob[0], 3)});
    }
    std::cout << table.render();
    std::cout << "The first layer whose assertion fires brackets the "
                 "buggy rotation.\n";
}

} // namespace

int
main()
{
    printFunctionalCheck();
    printAssertionDetection();
    printLocalization();
    return 0;
}
