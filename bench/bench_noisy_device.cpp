/**
 * @file
 * Sec. IX-B reproduction: the "real quantum computer" experiment on the
 * ibmq-melbourne-like noise model. Reports (a) assertion-error rates
 * with and without the injected bug, for our SWAP-based single-qubit
 * assertion (2 CX + 2 SG) and the prior work's primitive (2 CX + 6 SG),
 * and (b) the success-rate improvement from post-selecting on assertion
 * success.
 *
 * Paper numbers (decommissioned hardware): ours 36% -> 45% error rate,
 * primitives 42% -> 50%; success rate 19% -> 33% (primitives) -> 36%
 * (ours). Absolute values differ on a synthetic noise model; the shape
 * (bug raises the rate; cheaper circuit = lower floor; filtering helps)
 * is the reproduced claim.
 */
#include <cmath>
#include <iostream>

#include "algos/qpe.hpp"
#include "baselines/primitives.hpp"
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

// theta = pi/4 makes the counting register decode deterministically
// (x = 15), so "success" is unambiguous.
constexpr double kTheta = M_PI / 4;
constexpr int kShots = 8192;

/**
 * The prior work's superposition-primitive-style assertion of the
 * eigenstate: rotate the basis so the expected state maps onto |+> and
 * run the X-basis NDD primitive (2 CX + 6 SG in the paper's counting).
 */
int
insertPrimitiveStyleAssertion(AssertedProgram& prog, int qubit)
{
    return prog.addCustomAssertion(1, 1, [&](const BuildContext& ctx) {
        QuantumCircuit frag(ctx.total_qubits, ctx.total_clbits);
        const int anc = ctx.ancillas[0];
        // (|0> + i|1>)/sqrt2 -> |+> via S^dagger; restore with S.
        frag.sdg(qubit);
        frag.h(anc);
        frag.cx(anc, qubit);
        frag.h(anc);
        frag.measure(anc, ctx.clbits[0]);
        frag.s(qubit);
        return frag;
    });
}

double
errorRate(bool bug, bool use_primitive, uint64_t seed,
          const NoiseModel& noise, CircuitCost* cost = nullptr)
{
    AssertedProgram prog(qpeRyProgram(4, kTheta, bug));
    if (use_primitive) {
        insertPrimitiveStyleAssertion(prog, 4);
    } else {
        prog.assertState({4}, StateSet::pure(qpeRyEigenstate()),
                         AssertionDesign::kSwap);
    }
    if (cost != nullptr) *cost = prog.slots()[0].cost;
    SimOptions options;
    options.shots = kShots;
    options.seed = seed;
    options.noise = &noise;
    return runAsserted(prog, options).slot_error_rate[0];
}

void
printErrorRates(const NoiseModel& noise)
{
    bench::banner("Sec. IX-B: assertion error rate on the noisy device "
                  "model (8192 shots)");
    TextTable table({"Scheme", "#CX/#SG", "no bug", "with bug"});
    CircuitCost ours_cost, prim_cost;
    const double ours_clean = errorRate(false, false, 11, noise,
                                        &ours_cost);
    const double ours_bug = errorRate(true, false, 12, noise);
    const double prim_clean = errorRate(false, true, 13, noise,
                                        &prim_cost);
    const double prim_bug = errorRate(true, true, 14, noise);
    table.addRow({"SWAP-based (ours)",
                  std::to_string(ours_cost.cx) + "/" +
                      std::to_string(ours_cost.sg),
                  bench::vsPaper(formatPercent(ours_clean), "36%"),
                  bench::vsPaper(formatPercent(ours_bug), "45%")});
    table.addRow({"Primitive [32]",
                  std::to_string(prim_cost.cx) + "/" +
                      std::to_string(prim_cost.sg),
                  bench::vsPaper(formatPercent(prim_clean), "42%"),
                  bench::vsPaper(formatPercent(prim_bug), "50%")});
    std::cout << table.render();
    std::cout << "Shape checks: bug raises both rates; the cheaper "
                 "circuit has the lower noise floor.\n";
}

void
printSuccessRates(const NoiseModel& noise)
{
    bench::banner("Sec. IX-B: success rate with assertion-based "
                  "filtering");

    // Ideal outcome set: top outcomes covering >= 80% of the noiseless
    // distribution of the measured register.
    AssertedProgram ideal(qpeRyProgram(4, kTheta, false));
    ideal.measureProgram();
    const AssertionOutcomeExact ideal_out = runAssertedExact(ideal);
    std::vector<std::pair<double, std::string>> ranked;
    for (const auto& [bits, p] : ideal_out.program_dist.probs) {
        ranked.emplace_back(p, bits);
    }
    std::sort(ranked.rbegin(), ranked.rend());
    std::vector<std::string> success_set;
    double covered = 0.0;
    for (const auto& [p, bits] : ranked) {
        if (covered >= 0.8) break;
        success_set.push_back(bits);
        covered += p;
    }
    auto successRate = [&](const Counts& counts) {
        double total = 0.0;
        for (const std::string& bits : success_set) {
            total += counts.toDistribution().probability(bits);
        }
        return total;
    };

    TextTable table({"Configuration", "success rate"});

    // Unfiltered baseline.
    {
        AssertedProgram raw(qpeRyProgram(4, kTheta, false));
        raw.measureProgram();
        SimOptions options;
        options.shots = kShots;
        options.seed = 21;
        options.noise = &noise;
        const AssertionOutcome outcome = runAsserted(raw, options);
        table.addRow({"no assertion",
                      bench::vsPaper(
                          formatPercent(successRate(
                              outcome.program_counts)), "19%")});
    }
    // Filtered by the single-qubit primitive / ours and by the
    // full-state assertion (the strongest filter).
    struct Config
    {
        std::string name;
        std::string paper;
        bool primitive;
        bool full_state;
    };
    for (const Config& cfg :
         {Config{"filtered by primitive [32]", "33%", true, false},
          Config{"filtered by SWAP single-qubit (ours)", "36%", false,
                 false},
          Config{"filtered by SWAP 4q counting register", "n/a", false,
                 true}}) {
        AssertedProgram prog(qpeRyProgram(4, kTheta, false));
        if (cfg.full_state) {
            // Assert the counting register (pure at slot 6 -- the
            // eigenqubit never entangles in the Ry variant).
            const CVector slot6 =
                finalState(qpeRyProgram(4, kTheta, false)).amplitudes();
            CMatrix rho_count = partialTrace(densityFromPure(slot6),
                                             {0, 1, 2, 3});
            EigenResult eig = eigHermitian(rho_count);
            prog.assertState({0, 1, 2, 3},
                             StateSet::pure(eig.vectors.column(0)),
                             AssertionDesign::kSwap);
        } else if (cfg.primitive) {
            insertPrimitiveStyleAssertion(prog, 4);
        } else {
            prog.assertState({4}, StateSet::pure(qpeRyEigenstate()),
                             AssertionDesign::kSwap);
        }
        prog.measureProgram();
        SimOptions options;
        options.shots = kShots;
        options.seed = 22;
        options.noise = &noise;
        const AssertionOutcome outcome = runAsserted(prog, options);
        table.addRow({cfg.name,
                      bench::vsPaper(
                          formatPercent(successRate(
                              outcome.program_counts_passed)),
                          cfg.paper)});
    }
    std::cout << table.render();
    std::cout << "Shape: filtering on assertion success raises the "
                 "success rate; broader assertions filter harder. With "
                 "independent per-qubit noise the single-qubit filters "
                 "move less than on hardware (correlated noise), see "
                 "EXPERIMENTS.md.\n";
}

} // namespace

/**
 * Late-life melbourne-grade noise: the paper's raw success rate was 19%,
 * which corresponds to substantially heavier two-qubit error than the
 * calibration-sheet averages (the device was retired soon after).
 */
NoiseModel
heavyNoise()
{
    NoiseModel model;
    model.noise_1q.push_back(KrausChannel::depolarizing(0.003));
    model.noise_2q.push_back(KrausChannel::depolarizing(0.055));
    model.noise_2q.push_back(KrausChannel::amplitudeDamping(0.008));
    model.readout_p01 = 0.03;
    model.readout_p10 = 0.06;
    return model;
}

int
main()
{
    const NoiseModel noise = heavyNoise();
    printErrorRates(noise);
    printSuccessRates(noise);
    return 0;
}
