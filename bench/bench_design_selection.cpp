/**
 * @file
 * Sec. VI reproduction: "since each design performs the best for their
 * special cases, none of the designs outperforms the rest for every
 * situation". Sweeps the assertion-state families the paper discusses
 * and reports which design the paper's design=NONE auto-selection picks,
 * demonstrating that every design wins somewhere.
 */
#include <cmath>
#include <iostream>
#include <map>

#include "algos/deutsch_jozsa.hpp"
#include "algos/states.hpp"
#include "bench_util.hpp"
#include "common/format.hpp"
#include "core/asserted_program.hpp"
#include "linalg/states.hpp"

namespace
{

using namespace qa;
using namespace qa::algos;

struct Family
{
    std::string name;
    StateSet set;
    std::string paper_preference;
};

std::vector<Family>
families()
{
    Rng rng(2027);
    std::vector<Family> out;

    out.push_back({"single-qubit pure", StateSet::pure(randomState(1, rng)),
                   "logical OR (1 CX)"});

    CVector product = randomState(1, rng)
                          .tensor(randomState(1, rng))
                          .tensor(randomState(1, rng));
    out.push_back({"3q separable pure", StateSet::pure(product),
                   "SWAP (3n CX)"});

    // Even-parity family (a|0..0> + b|1..1> and friends).
    std::vector<CVector> parity;
    for (size_t i = 0; i < 8; ++i) {
        if (__builtin_popcountll(i) % 2 == 0) {
            parity.push_back(CVector::basisState(8, i));
        }
    }
    out.push_back({"3q even-parity set", StateSet::approximate(parity),
                   "NDD (n CX)"});

    out.push_back({"3q GHZ precise", StateSet::pure(ghzVector(3)),
                   "SWAP"});

    out.push_back({"DJ constant set",
                   StateSet::approximate(djConstantSet(2)),
                   "SWAP (Sec. X)"});

    out.push_back({"2q mixed rank 2",
                   StateSet::mixed(partialTrace(
                       densityFromPure(ghzVector(3)), {1, 2})),
                   "--"});

    out.push_back({"3q random pure", StateSet::pure(randomState(3, rng)),
                   "--"});

    out.push_back({"cluster state precise",
                   StateSet::pure(linearClusterVector(4)), "--"});
    return out;
}

void
printSelection()
{
    bench::banner("Sec. VI: design auto-selection across state families "
                  "(the paper's design = NONE)");
    TextTable table({"state family", "SWAP #CX", "OR #CX", "NDD #CX",
                     "auto picks", "paper prefers"});
    std::map<std::string, int> wins;
    for (const Family& family : families()) {
        const int swap_cx =
            estimateAssertionCost(family.set, AssertionDesign::kSwap).cx;
        const int or_cx =
            estimateAssertionCost(family.set, AssertionDesign::kOr).cx;
        const int ndd_cx =
            estimateAssertionCost(family.set, AssertionDesign::kNdd).cx;

        AssertedProgram prog(QuantumCircuit(family.set.numQubits()));
        std::vector<int> qubits;
        for (int q = 0; q < family.set.numQubits(); ++q) {
            qubits.push_back(q);
        }
        prog.assertState(qubits, family.set, AssertionDesign::kAuto);
        const std::string chosen = designName(prog.slots()[0].design);
        ++wins[chosen];
        table.addRow({family.name, std::to_string(swap_cx),
                      std::to_string(or_cx), std::to_string(ndd_cx),
                      chosen, family.paper_preference});
    }
    std::cout << table.render();
    std::cout << "Distinct winners: " << wins.size()
              << " -- no design dominates every family (Sec. VI).\n";
}

} // namespace

int
main()
{
    printSelection();
    return 0;
}
