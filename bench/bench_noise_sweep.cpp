/**
 * @file
 * Extension ablation: how the Sec. IX-B effects scale with noise
 * strength and with assertion repetition.
 *
 *  (a) assertion-error-rate floor and bug-separation vs. two-qubit
 *      depolarizing strength -- the debugging signal survives until the
 *      floor swamps it;
 *  (b) success-rate filtering gain vs. number of inserted assertions --
 *      the SWAP design "corrects" the tested qubits, so repeated
 *      assertions keep filtering (at the price of shots and added
 *      circuit noise).
 */
#include <cmath>
#include <iostream>

#include "algos/qpe.hpp"
#include "bench_util.hpp"
#include "common/format.hpp"
#include "core/runner.hpp"
#include "linalg/eigen.hpp"
#include "linalg/states.hpp"
#include "sim/statevector.hpp"

namespace
{

using namespace qa;
using namespace qa::algos;

constexpr double kTheta = M_PI / 4;
constexpr int kShots = 4096;

void
printErrorRateSweep()
{
    bench::banner("Assertion error rate vs. 2q depolarizing strength "
                  "(QPE slot-6 single-qubit assertion)");
    TextTable table({"p2", "no bug", "with bug", "separation"});
    for (double p2 : {0.005, 0.01, 0.02, 0.04, 0.08}) {
        NoiseModel noise = NoiseModel::depolarizing(p2 / 10.0, p2);
        noise.readout_p01 = 0.01;
        noise.readout_p10 = 0.02;
        auto rate = [&](bool bug, uint64_t seed) {
            AssertedProgram prog(qpeRyProgram(4, kTheta, bug));
            prog.assertState({4}, StateSet::pure(qpeRyEigenstate()),
                             AssertionDesign::kSwap);
            SimOptions options;
            options.shots = kShots;
            options.seed = seed;
            options.noise = &noise;
            return runAsserted(prog, options).slot_error_rate[0];
        };
        const double clean = rate(false, 31);
        const double buggy = rate(true, 32);
        table.addRow({formatDouble(p2, 3), formatPercent(clean),
                      formatPercent(buggy),
                      formatPercent(buggy - clean)});
    }
    std::cout << table.render();
    std::cout << "Shape: the floor grows with noise while the bug "
                 "separation shrinks -- debugging wants the cheapest "
                 "assertion circuit available (the paper's cost "
                 "argument).\n";
}

void
printRepetitionSweep()
{
    bench::banner("Success-rate filtering vs. assertion repetitions "
                  "(SWAP corrects on pass)");
    const NoiseModel noise = NoiseModel::ibmqMelbourneLike();

    // Expected counting-register state (pure in the Ry variant).
    const CVector final_state =
        finalState(qpeRyProgram(4, kTheta, false)).amplitudes();
    const CMatrix rho_counting =
        partialTrace(densityFromPure(final_state), {0, 1, 2, 3});
    const CVector counting =
        eigHermitian(rho_counting).vectors.column(0);

    // Ideal outcome set.
    AssertedProgram ideal(qpeRyProgram(4, kTheta, false));
    ideal.measureProgram();
    const AssertionOutcomeExact ideal_out = runAssertedExact(ideal);

    auto successRate = [&](const Counts& counts) {
        double total = 0.0;
        for (const auto& [bits, p] : ideal_out.program_dist.probs) {
            if (p > 1e-9) {
                total += counts.toDistribution().probability(bits);
            }
        }
        return total;
    };

    TextTable table({"#assertions", "pass rate", "filtered success",
                     "surviving shots"});
    for (int repeats : {0, 1, 2, 3}) {
        AssertedProgram prog(qpeRyProgram(4, kTheta, false));
        for (int r = 0; r < repeats; ++r) {
            prog.assertState({0, 1, 2, 3}, StateSet::pure(counting),
                             AssertionDesign::kSwap);
        }
        prog.measureProgram();
        SimOptions options;
        options.shots = kShots;
        options.seed = 77 + uint64_t(repeats);
        options.noise = &noise;
        const AssertionOutcome outcome = runAsserted(prog, options);
        table.addRow(
            {std::to_string(repeats), formatPercent(outcome.pass_rate),
             formatPercent(successRate(
                 repeats == 0 ? outcome.program_counts
                              : outcome.program_counts_passed)),
             std::to_string(repeats == 0
                                ? outcome.program_counts.shots
                                : outcome.program_counts_passed.shots)});
    }
    std::cout << table.render();
    std::cout << "Shape: each repetition filters more errors but costs "
                 "shots and adds its own gate noise -- the returns "
                 "diminish, matching the paper's framing of assertions "
                 "as a fidelity/overhead trade.\n";
}

} // namespace

int
main()
{
    printErrorRateSweep();
    printRepetitionSweep();
    return 0;
}
