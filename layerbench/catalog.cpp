/**
 * @file
 * Workload catalogs: every request line a workload sends, generated
 * from the seed with the paper's own builders (AssertedProgram with
 * SWAP/OR/NDD designs, QpeProgram, the Deutsch-Jozsa sets, GHZ and
 * cluster preps), exported with toQasm() plus assert_clbits so the wire
 * decoder is on every path, and the exact reference each is checked
 * against.
 */
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <sstream>

#include "algos/deutsch_jozsa.hpp"
#include "algos/qft.hpp"
#include "algos/qpe.hpp"
#include "algos/states.hpp"
#include "bench.hpp"
#include "core/asserted_program.hpp"
#include "core/runner.hpp"
#include "linalg/states.hpp"
#include "sim/density.hpp"
#include "sim/fusion.hpp"
#include "sim/noise.hpp"
#include "sim/statevector.hpp"

namespace layerbench
{

using namespace qa;

int64_t
nowNs()
{
    static const SteadyClock::time_point origin = SteadyClock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - origin)
        .count();
}

uint64_t
splitmix(uint64_t& state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
uniform01(uint64_t& state)
{
    return double(splitmix(state) >> 11) * (1.0 / 9007199254740992.0);
}

namespace
{

std::vector<int>
range(int lo, int hi)
{
    std::vector<int> out(size_t(hi - lo));
    std::iota(out.begin(), out.end(), lo);
    return out;
}

/** Request-line options beyond circuit and slots. */
struct LineOptions
{
    int shots = 1024;
    uint64_t seed = 1;
    bool auto_assert = false;
    bool melbourne = false;
};

std::string
requestLine(const std::string& id, const QuantumCircuit& qc,
            const std::vector<std::vector<int>>& slots,
            const LineOptions& opt)
{
    std::ostringstream line;
    line << "{\"id\":\"" << serve::jsonEscape(id) << "\",\"qasm\":\""
         << serve::jsonEscape(qc.toQasm()) << "\",\"shots\":" << opt.shots
         << ",\"seed\":" << opt.seed;
    if (!slots.empty()) {
        line << ",\"assert_clbits\":[";
        for (size_t i = 0; i < slots.size(); ++i) {
            line << (i ? ",[" : "[");
            for (size_t j = 0; j < slots[i].size(); ++j) {
                line << (j ? "," : "") << slots[i][j];
            }
            line << "]";
        }
        line << "]";
    }
    if (opt.auto_assert) line << ",\"auto_assert\":true";
    if (opt.melbourne) line << ",\"noise\":{\"kind\":\"melbourne\"}";
    line << "}";
    return line.str();
}

/** A job body before it becomes a line: circuit, slots, reference. */
struct Spec
{
    std::string name;
    QuantumCircuit circuit{1};
    std::vector<std::vector<int>> slots;
    AssertionCost cost;
    bool auto_assert = false;
    bool melbourne = false;
    Reference::Kind kind = Reference::Kind::kExact;
    std::shared_ptr<const AssertedProgram> program; ///< null: raw circuit
};

/** A measured AssertedProgram as a job spec (reference computed later). */
Spec
fromProgram(const std::string& name, const AssertedProgram& prog)
{
    Spec spec;
    spec.name = name;
    spec.circuit = prog.circuit();
    spec.program = std::make_shared<const AssertedProgram>(prog);
    for (const AssertedProgram::Slot& slot : prog.slots()) {
        spec.slots.push_back(slot.clbits);
        spec.cost.cx += slot.cost.cx;
        spec.cost.sq_gates += slot.cost.sg;
        spec.cost.ancillas += slot.cost.ancilla;
        spec.cost.measures += slot.cost.measure;
    }
    return spec;
}

/** A raw circuit submitted with auto_assert (compiler inserts slots). */
Spec
autoAsserted(const std::string& name, const QuantumCircuit& raw)
{
    Spec spec;
    spec.name = name;
    spec.circuit = raw;
    spec.auto_assert = true;
    spec.kind = Reference::Kind::kAutoAssert;
    return spec;
}

/**
 * Exact distribution of a noiseless circuit whose measurements all come
 * last: the squared amplitudes of the measurement-free prefix, read out
 * through the terminal qubit -> clbit map. The same distribution the
 * branching oracle (exactDistribution, behind runAssertedExact) gives,
 * without its 2^measurements branches on wide dense registers. The
 * state is evolved gate by gate on the scalar kernels, so the fused and
 * AVX2 paths the sampled jobs take are checked against an independent
 * evolution. Returns false when the circuit has a mid-circuit
 * measurement or a reset.
 */
bool
terminalDistribution(const QuantumCircuit& circuit, Distribution* out)
{
    const auto& instrs = circuit.instructions();
    size_t first_measure = instrs.size();
    for (size_t i = 0; i < instrs.size(); ++i) {
        if (instrs[i].type == OpType::kReset) return false;
        if (instrs[i].type == OpType::kMeasure) {
            first_measure = std::min(first_measure, i);
        } else if (instrs[i].isGate() && first_measure < i) {
            return false;
        }
    }
    QuantumCircuit prefix(circuit.numQubits(), 0);
    for (size_t i = 0; i < first_measure; ++i) prefix.append(instrs[i]);
    FusionOptions unfused;
    unfused.enabled = false;
    const Statevector state = finalState(prefix, unfused, /*simd=*/false);
    const int n = circuit.numQubits();
    for (const auto& [index, p] : state.basisProbabilities(0.0)) {
        std::string bits(size_t(circuit.numClbits()), '0');
        for (size_t i = first_measure; i < instrs.size(); ++i) {
            if (instrs[i].type != OpType::kMeasure) continue;
            const int q = instrs[i].qubits[0];
            const bool one = (index >> (n - 1 - q)) & 1;
            bits[size_t(instrs[i].cbit)] = one ? '1' : '0';
        }
        out->probs[bits] += p;
    }
    return true;
}

Reference
referenceFor(const Spec& spec)
{
    Reference ref;
    ref.kind = spec.kind;
    ref.slots = spec.slots;
    if (spec.kind == Reference::Kind::kWide) return ref;
    const NoiseModel noise = NoiseModel::ibmqMelbourneLike();
    const NoiseModel* model = spec.melbourne ? &noise : nullptr;
    if (model == nullptr && terminalDistribution(spec.circuit, &ref.raw)) {
        return ref;
    }
    if (spec.program != nullptr) {
        // Statevector branching when noiseless, exact density-matrix
        // channels under the noise model.
        ref.raw = runAssertedExact(*spec.program, model).raw;
    } else {
        ref.raw = model != nullptr ? exactDistributionDM(spec.circuit, model)
                                   : exactDistribution(spec.circuit);
    }
    return ref;
}

QuantumCircuit
measured(const QuantumCircuit& gates)
{
    QuantumCircuit qc(gates.numQubits(), gates.numQubits());
    qc.compose(gates, range(0, gates.numQubits()));
    for (int q = 0; q < gates.numQubits(); ++q) qc.measure(q, q);
    return qc;
}

CVector
basis(int qubits, size_t index)
{
    return CVector::basisState(size_t(1) << qubits, index);
}

/** {|0..0>, |1..1>} on `qubits` qubits: the GHZ support subspace. */
std::vector<CVector>
ghzSupport(int qubits)
{
    return {basis(qubits, 0), basis(qubits, (size_t(1) << qubits) - 1)};
}

// ---------------------------------------------------------------- many_shots

Spec
ghzSwapNdd(int n, int swap_width)
{
    AssertedProgram prog(algos::ghzPrep(n));
    if (swap_width == n) {
        prog.assertState(range(0, n), StateSet::pure(algos::ghzVector(n)),
                         AssertionDesign::kSwap);
    } else {
        // Reduced state of a GHZ block: precise mixed assertion.
        const std::vector<CVector> support = ghzSupport(swap_width);
        prog.assertState(range(0, swap_width),
                         StateSet::mixed(densityFromMixture(support)),
                         AssertionDesign::kSwap);
    }
    prog.assertState({n - 2, n - 1},
                     StateSet::approximate(ghzSupport(2)),
                     AssertionDesign::kNdd);
    prog.measureProgram();
    return fromProgram("ghz" + std::to_string(n) + "_swap_ndd", prog);
}

/** QPE with a SWAP slot after stage `slot` (mid-circuit unless last). */
Spec
qpeMidSlot(int counting, double lambda, int slot, const std::string& name)
{
    const algos::QpeProgram qpe(counting, lambda);
    const std::vector<int> ident = range(0, qpe.numQubits());
    QuantumCircuit prefix(qpe.numQubits());
    for (int s = 0; s < slot; ++s) prefix.compose(qpe.stage(s), ident);
    AssertedProgram prog(prefix);
    prog.assertState(ident, StateSet::pure(qpe.expectedStateAtSlot(slot)),
                     AssertionDesign::kSwap);
    for (int s = slot; s < qpe.numStages(); ++s) prog.append(qpe.stage(s));
    prog.measureProgram();
    return fromProgram(name, prog);
}

Spec
djApprox(algos::DjOracle oracle, AssertionDesign design,
         const std::string& name)
{
    AssertedProgram prog(algos::djFunctionEval(2, oracle));
    prog.assertState({0, 1, 2},
                     StateSet::approximate(algos::djConstantSet(2)),
                     design);
    prog.measureProgram();
    return fromProgram(name, prog);
}

/** Melbourne-noise GHZ-3 with a mid-circuit slot (trajectory path). */
Spec
noisyGhzMid()
{
    AssertedProgram prog(algos::ghzPrep(3));
    prog.assertState({0, 1, 2}, StateSet::pure(algos::ghzVector(3)),
                     AssertionDesign::kSwap);
    QuantumCircuit tail(3);
    tail.cx(1, 2);
    tail.cx(0, 1);
    prog.append(tail);
    prog.measureProgram();
    Spec spec = fromProgram("ghz3_melbourne_mid", prog);
    spec.melbourne = true;
    return spec;
}

/** The MPS-backend Trotter chain (rx layer + cx/rz/cx couplers). */
QuantumCircuit
trotterGates(int n, int layers, double coupling)
{
    QuantumCircuit qc(n, 0);
    for (int q = 0; q < n; ++q) qc.rx(q, 0.30 + 0.01 * q);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q + 1 < n; ++q) {
            qc.cx(q, q + 1);
            qc.rz(q + 1, coupling);
            qc.cx(q, q + 1);
        }
        for (int q = 0; q < n; ++q) qc.rx(q, 0.21);
    }
    return qc;
}

Spec
trotterSwap(int n, int layers, double coupling)
{
    AssertedProgram prog(trotterGates(n, layers, coupling));
    prog.assertState({n - 2, n - 1}, StateSet::approximate(ghzSupport(2)),
                     AssertionDesign::kSwap);
    prog.measureProgram();
    Spec spec = fromProgram("trotter" + std::to_string(n) + "_swap_mps",
                            prog);
    spec.kind = Reference::Kind::kWide;
    return spec;
}

QuantumCircuit
rawGhz(int n, bool cluster)
{
    return measured(cluster ? algos::linearClusterPrep(n)
                            : algos::ghzPrep(n));
}

std::vector<Spec>
manyShotsSpecs(uint64_t& rng)
{
    const double lambda = 2.0 * M_PI * (0.1 + 0.8 * uniform01(rng));
    std::vector<Spec> specs;
    specs.push_back(ghzSwapNdd(5, 5));
    specs.push_back(ghzSwapNdd(12, 3));
    specs.push_back(qpeMidSlot(4, lambda, 3, "qpe4_swap_mid"));
    specs.push_back(djApprox(algos::DjOracle::kBuggyAnd,
                             AssertionDesign::kSwap, "dj2_buggy_swap"));
    specs.push_back(noisyGhzMid());
    specs.push_back(trotterSwap(32, 2, 0.17));
    specs.push_back(autoAsserted("ghz8_auto", rawGhz(8, false)));
    return specs;
}

// ------------------------------------------------------------- deep_circuits

/** BENCH_PR6's random layered circuit: u3 layer + brick cx, per layer. */
QuantumCircuit
randomLayers(int n, int layers, uint64_t& rng)
{
    QuantumCircuit qc(n);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < n; ++q) {
            qc.u3(q, 3.0 * uniform01(rng), 3.0 * uniform01(rng),
                  3.0 * uniform01(rng));
        }
        for (int q = 0; q + 1 < n; q += 2) qc.cx(q, q + 1);
        for (int q = 1; q + 1 < n; q += 2) qc.cx(q, q + 1);
    }
    return qc;
}

Spec
plainProgram(const std::string& name, const QuantumCircuit& gates)
{
    AssertedProgram prog(gates);
    prog.measureProgram();
    return fromProgram(name, prog);
}

Spec
qftOfBasis(int n, uint64_t& rng)
{
    QuantumCircuit qc(n);
    for (int q = 0; q < n; ++q) {
        if (splitmix(rng) & 1) qc.x(q);
    }
    // A Hadamard on the top qubit makes the output non-uniform.
    qc.h(0);
    algos::appendQft(qc, range(0, n));
    return plainProgram("qft" + std::to_string(n), qc);
}

/**
 * Noisy QPE on a small terminal-measurement register: routes to the
 * density backend (exact channel evolution in prepare, shots nearly
 * free). It carries no slot: every AssertedProgram slot ends with an
 * ancilla reset, and a mid-circuit reset rules the density backend out.
 */
Spec
noisyQpe(int counting, double lambda)
{
    const algos::QpeProgram qpe(counting, lambda);
    Spec spec = plainProgram(
        "qpe" + std::to_string(counting) + "_melbourne_dm", qpe.full());
    spec.melbourne = true;
    return spec;
}

/** Raw Clifford prefix (GHZ) followed by a QFT: auto-asserted. */
Spec
autoGhzQft(int n)
{
    QuantumCircuit qc(n, n);
    qc.h(0);
    for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
    algos::appendQft(qc, range(0, n));
    for (int q = 0; q < n; ++q) qc.measure(q, q);
    return autoAsserted("auto_ghz_qft" + std::to_string(n), qc);
}

std::vector<Spec>
deepSpecs(uint64_t& rng)
{
    std::vector<Spec> specs;
    specs.push_back(plainProgram("random16x8", randomLayers(16, 8, rng)));
    specs.push_back(qftOfBasis(16, rng));
    // Seven jobs, so the median latency falls inside one job's spread
    // instead of on the gap between two.
    specs.push_back(qftOfBasis(14, rng));
    specs.push_back(
        noisyQpe(4, 2.0 * M_PI * (0.1 + 0.8 * uniform01(rng))));
    specs.push_back(autoGhzQft(8));
    Spec chain = plainProgram("trotter32_mps", trotterGates(32, 2, 0.17));
    chain.kind = Reference::Kind::kWide;
    specs.push_back(chain);
    // Wide Clifford prep: the stabilizer backend's prepare on 48 qubits.
    Spec cluster = plainProgram("cluster48_stab", algos::linearClusterPrep(48));
    cluster.kind = Reference::Kind::kWide;
    specs.push_back(cluster);
    return specs;
}

// ------------------------------------------------------------- service_zipf

/**
 * Service template t: a Clifford slot job, an auto job, or a small
 * non-Clifford circuit. The structure (family, width, state, design)
 * is a fixed function of t, so every seed runs the same cost mix; the
 * seed varies request seeds, phases and which entries are popular.
 */
Spec
serviceTemplate(int t, uint64_t& rng)
{
    const int family = t % 16;
    const int n = 3 + t % 6;
    const bool cluster = (t / 6) % 2 != 0;
    if (family < 11) {
        const QuantumCircuit prep =
            cluster ? algos::linearClusterPrep(n) : algos::ghzPrep(n);
        const CVector psi = cluster ? algos::linearClusterVector(n)
                                    : algos::ghzVector(n);
        const bool swap = (t / 12) % 2 != 0;
        AssertedProgram prog(prep);
        prog.assertState(range(0, n), StateSet::pure(psi),
                         swap ? AssertionDesign::kSwap
                              : AssertionDesign::kNdd);
        const int tail = t % 3;
        if (tail > 0) {
            QuantumCircuit xs(n);
            for (int k = 0; k < tail; ++k) xs.x(k % n);
            prog.append(xs);
        }
        prog.measureProgram();
        return fromProgram(std::string(cluster ? "cluster" : "ghz") +
                               std::to_string(n) +
                               (swap ? "_swap" : "_ndd"),
                           prog);
    }
    if (family < 15) {
        return autoAsserted(std::string(cluster ? "cluster" : "ghz") +
                                std::to_string(n) + "_auto",
                            rawGhz(n, cluster));
    }
    if ((t / 16) % 3 == 0) {
        return djApprox(algos::DjOracle::kBuggyAnd, AssertionDesign::kOr,
                        "dj2_buggy_or");
    }
    if ((t / 16) % 3 == 2) {
        // A short wide chain: the MPS backend's small-job path.
        Spec chain = plainProgram("trotter24_mps",
                                  trotterGates(24, 1, 0.1 + 0.1 * n));
        chain.kind = Reference::Kind::kWide;
        return chain;
    }
    return qpeMidSlot(3, 2.0 * M_PI * (0.1 + 0.8 * uniform01(rng)), 5,
                      "qpe3_swap_end");
}

constexpr int kServiceTemplates = 64;
constexpr int kServiceEntries = 2048;
constexpr int kServiceShots = 1024;

} // namespace

bool
knownWorkload(const std::string& workload)
{
    return workload == "service_zipf" || workload == "many_shots" ||
           workload == "deep_circuits";
}

Catalog
buildCatalog(const std::string& workload, uint64_t seed)
{
    uint64_t rng = seed * 0x2545f4914f6cdd1dULL + 0x6c62;
    Catalog catalog;
    auto addJob = [&](const Spec& spec, int reference, int shots,
                      const std::string& id) {
        LineOptions opt;
        opt.shots = shots;
        opt.seed = splitmix(rng) >> 16;
        opt.auto_assert = spec.auto_assert;
        opt.melbourne = spec.melbourne;
        CatalogJob job;
        job.name = spec.name;
        job.id = id;
        job.shots = shots;
        job.reference = reference;
        job.cost = spec.cost;
        job.line = requestLine(id, spec.circuit, spec.slots, opt);
        catalog.jobs.push_back(std::move(job));
    };

    if (workload == "service_zipf") {
        std::vector<Spec> templates;
        for (int t = 0; t < kServiceTemplates; ++t) {
            templates.push_back(serviceTemplate(t, rng));
            catalog.references.push_back(referenceFor(templates.back()));
        }
        for (int k = 0; k < kServiceEntries; ++k) {
            const int t = k % kServiceTemplates;
            addJob(templates[size_t(t)], t, kServiceShots,
                   "z" + std::to_string(k));
        }
        return catalog;
    }

    const bool many = workload == "many_shots";
    const std::vector<Spec> specs =
        many ? manyShotsSpecs(rng) : deepSpecs(rng);
    const int shots = many ? 4096 : 256;
    for (const Spec& spec : specs) {
        catalog.references.push_back(referenceFor(spec));
        addJob(spec, int(catalog.references.size()) - 1, shots, spec.name);
    }
    return catalog;
}

} // namespace layerbench
