#include "sim/statevector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/format.hpp"
#include "linalg/states.hpp"
#include "sim/branch_walk.hpp"
#include "sim/fusion.hpp"
#include "sim/kernels.hpp"

namespace qa
{

namespace
{

/**
 * Bit positions (in the global index) of the listed qubits, preserving
 * the local MSB-first order: local bit j of the gate operand lives at
 * global bit position n-1-qubits[j].
 */
std::vector<int>
bitPositions(const std::vector<int>& qubits, int num_qubits)
{
    std::vector<int> pos(qubits.size());
    for (size_t j = 0; j < qubits.size(); ++j) {
        pos[j] = num_qubits - 1 - qubits[j];
    }
    return pos;
}

} // namespace

Statevector::Statevector(int num_qubits)
    : num_qubits_(num_qubits), amps_(size_t(1) << num_qubits)
{
    QA_REQUIRE(num_qubits >= 1 && num_qubits <= 24,
               "statevector supports 1..24 qubits");
    amps_[0] = 1.0;
}

Statevector::Statevector(CVector amplitudes) : num_qubits_(0),
    amps_(std::move(amplitudes))
{
    num_qubits_ = qubitCountForDim(amps_.dim());
    QA_REQUIRE(std::abs(amps_.norm() - 1.0) < 1e-6,
               "statevector amplitudes must be normalized");
}

void
Statevector::applyMatrix(const CMatrix& m, const std::vector<int>& qubits)
{
    const size_t k = qubits.size();
    QA_REQUIRE(m.rows() == (size_t(1) << k) && m.cols() == m.rows(),
               "matrix dimension does not match qubit count");
    for (int q : qubits) {
        QA_REQUIRE(q >= 0 && q < num_qubits_, "qubit index out of range");
    }
    const std::vector<int> pos = bitPositions(qubits, num_qubits_);
    applyDenseKernel(amps_.data().data(), amps_.dim(), m, pos.data(), k,
                     simd_);
}

void
Statevector::applyGate(const Instruction& instr)
{
    QA_REQUIRE(instr.isGate(), "applyGate needs a gate instruction");
    applyMatrix(instr.matrix, instr.qubits);
}

double
Statevector::probabilityOne(int q) const
{
    QA_REQUIRE(q >= 0 && q < num_qubits_, "qubit index out of range");
    const uint64_t mask = uint64_t(1) << (num_qubits_ - 1 - q);
    double prob = 0.0;
    for (uint64_t i = 0; i < amps_.dim(); ++i) {
        if (i & mask) prob += std::norm(amps_[i]);
    }
    return prob;
}

int
Statevector::measure(int q, Rng& rng)
{
    const double p1 = probabilityOne(q);
    const int outcome = rng.uniform() < p1 ? 1 : 0;
    collapse(q, outcome);
    return outcome;
}

void
Statevector::collapse(int q, int outcome)
{
    QA_REQUIRE(q >= 0 && q < num_qubits_, "qubit index out of range");
    QA_REQUIRE(outcome == 0 || outcome == 1, "outcome must be 0 or 1");
    const uint64_t mask = uint64_t(1) << (num_qubits_ - 1 - q);
    double kept = 0.0;
    for (uint64_t i = 0; i < amps_.dim(); ++i) {
        const bool bit = (i & mask) != 0;
        if (bit != (outcome == 1)) {
            amps_[i] = 0.0;
        } else {
            kept += std::norm(amps_[i]);
        }
    }
    QA_REQUIRE(kept > 1e-14, "collapse onto a zero-probability outcome");
    const Complex scale(1.0 / std::sqrt(kept), 0.0);
    amps_ *= scale;
}

void
Statevector::reset(int q, Rng& rng)
{
    if (measure(q, rng) == 1) {
        applyMatrix(CMatrix{{0, 1}, {1, 0}}, {q});
    }
}

void
Statevector::applyKrausTrajectory(const KrausChannel& channel, int q,
                                  Rng& rng)
{
    const CMatrix rho_q = reducedDensity(q);
    std::vector<double> probs;
    probs.reserve(channel.ops().size());
    double total = 0.0;
    for (const CMatrix& k : channel.ops()) {
        probs.push_back(std::max(0.0, (k.dagger() * k * rho_q)
                                          .trace()
                                          .real()));
        total += probs.back();
    }
    QA_REQUIRE(total > 1e-14,
               "every Kraus branch of channel '" + channel.name() +
                   "' has ~zero probability (state numerically "
                   "degenerate); cannot sample a trajectory");
    const size_t choice = rng.discrete(probs);
    applyMatrix(channel.ops()[choice], {q});
    const double norm = amps_.norm();
    QA_ASSERT(norm > 1e-14, "Kraus trajectory annihilated the state");
    amps_ *= Complex(1.0 / norm, 0.0);
}

CMatrix
Statevector::reducedDensity(int q) const
{
    QA_REQUIRE(q >= 0 && q < num_qubits_, "qubit index out of range");
    const uint64_t mask = uint64_t(1) << (num_qubits_ - 1 - q);
    CMatrix rho(2, 2);
    for (uint64_t i = 0; i < amps_.dim(); ++i) {
        if (amps_[i] == Complex(0.0)) continue;
        const size_t a = (i & mask) ? 1 : 0;
        // Pair index with the bit flipped contributes the off-diagonal.
        const uint64_t j = i ^ mask;
        rho(a, a) += std::norm(amps_[i]);
        rho(a, 1 - a) += amps_[i] * std::conj(amps_[j]);
    }
    return rho;
}

std::vector<std::pair<uint64_t, double>>
Statevector::basisProbabilities(double eps) const
{
    // Appending in index order yields a sorted vector directly; callers
    // that iterate in order pay no red-black-tree overhead.
    std::vector<std::pair<uint64_t, double>> out;
    for (uint64_t i = 0; i < amps_.dim(); ++i) {
        const double p = std::norm(amps_[i]);
        if (p > eps) out.emplace_back(i, p);
    }
    return out;
}

std::map<uint64_t, double>
Statevector::basisProbabilitiesMap(double eps) const
{
    const auto sorted = basisProbabilities(eps);
    return std::map<uint64_t, double>(sorted.begin(), sorted.end());
}

uint64_t
Statevector::sampleBasis(Rng& rng) const
{
    double draw = rng.uniform();
    double acc = 0.0;
    for (uint64_t i = 0; i < amps_.dim(); ++i) {
        acc += std::norm(amps_[i]);
        if (draw < acc) return i;
    }
    return amps_.dim() - 1;
}

// runShots is implemented by the shot-execution engine (sim/engine.cpp).

Distribution
exactDistribution(const QuantumCircuit& circuit)
{
    return exactBranchWalk(circuit, Statevector(circuit.numQubits()),
                           nullptr);
}

Statevector
finalState(const QuantumCircuit& circuit)
{
    return finalState(circuit, FusionOptions{});
}

Statevector
finalState(const QuantumCircuit& circuit, const FusionOptions& fusion,
           bool simd)
{
    for (const Instruction& instr : circuit.instructions()) {
        QA_REQUIRE(instr.type == OpType::kGate ||
                       instr.type == OpType::kBarrier,
                   "finalState requires a measurement-free circuit");
    }
    Statevector state(circuit.numQubits());
    state.setSimd(simd);
    const FusedProgram prog = fuseCircuit(circuit, fusion);
    for (const Instruction& instr : prog.instructions) {
        if (instr.type == OpType::kGate) state.applyGate(instr);
    }
    return state;
}

} // namespace qa
