/**
 * @file
 * Statevector simulator: the workhorse backend for running programs with
 * inserted assertion circuits (the paper's "qasm simulator" substitute).
 *
 * Supports mid-circuit measurement with collapse (the capability real
 * devices lack and assertion circuits are engineered around), shot
 * sampling, trajectory (stochastic Kraus) noise, classical readout error,
 * and an exact branching distribution for deterministic tests.
 */
#ifndef QA_SIM_STATEVECTOR_HPP
#define QA_SIM_STATEVECTOR_HPP

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "linalg/vector.hpp"
#include "sim/fusion.hpp"
#include "sim/noise.hpp"
#include "sim/options.hpp"
#include "sim/result.hpp"

namespace qa
{

/** Mutable n-qubit pure state with gate/measurement/channel application. */
class Statevector
{
  public:
    /** Ground state |0...0> over the given number of qubits. */
    explicit Statevector(int num_qubits);

    /** Adopt explicit amplitudes (dimension must be a power of two). */
    explicit Statevector(CVector amplitudes);

    int numQubits() const { return num_qubits_; }
    const CVector& amplitudes() const { return amps_; }

    /**
     * Allow/forbid the AVX2 kernel path for this state (default on;
     * effective only when compiled in and supported by the CPU). The
     * flag copies with the state, so scratch clones keep the setting.
     */
    void setSimd(bool simd) { simd_ = simd; }
    bool simdEnabled() const { return simd_; }

    /**
     * Apply a 2^k x 2^k unitary (or Kraus operator) to the listed qubits;
     * qubits[0] is the most significant bit of the local index.
     */
    void applyMatrix(const CMatrix& m, const std::vector<int>& qubits);

    /** Apply a gate instruction. */
    void applyGate(const Instruction& instr);

    /** Probability that measuring qubit q yields 1. */
    double probabilityOne(int q) const;

    /** Measure qubit q, collapse, and return the outcome (0 or 1). */
    int measure(int q, Rng& rng);

    /**
     * Project qubit q onto the given outcome and renormalize.
     * Requires the outcome to have nonzero probability.
     */
    void collapse(int q, int outcome);

    /** Reset qubit q to |0> (measure + conditional flip). */
    void reset(int q, Rng& rng);

    /** Sample one stochastic trajectory of a single-qubit Kraus channel. */
    void applyKrausTrajectory(const KrausChannel& channel, int q, Rng& rng);

    /** Reduced 2x2 density matrix of qubit q. */
    CMatrix reducedDensity(int q) const;

    /**
     * Probabilities of all basis outcomes with mass above eps, sorted by
     * ascending basis index.
     */
    std::vector<std::pair<uint64_t, double>>
    basisProbabilities(double eps = 1e-12) const;

    /** basisProbabilities as a map, for callers needing keyed lookup. */
    std::map<uint64_t, double>
    basisProbabilitiesMap(double eps = 1e-12) const;

    /** Sample a full computational-basis outcome without collapsing. */
    uint64_t sampleBasis(Rng& rng) const;

  private:
    int num_qubits_;
    CVector amps_;
    bool simd_ = true;
};

/**
 * Run the circuit `shots` times, sampling measurements (and trajectory
 * noise when a model is given), and histogram the classical bits.
 * Routed entry point (backend/dispatch.cpp): options.backend selects a
 * concrete simulation backend, and kAuto picks the cheapest capable one
 * (Clifford circuits run on the stabilizer tableau at polynomial cost;
 * dense circuits fall back to the statevector engine; every backend
 * evolves its deterministic prefix once and clones it per shot, see
 * backend/shot_program.hpp).
 * Results are bit-identical for any thread count on any fixed resolved
 * backend; different backends agree distributionally, not bit-wise.
 */
Counts runShots(const QuantumCircuit& circuit, const SimOptions& options);

/**
 * Exact noiseless outcome distribution: branches on every measurement and
 * reset, so mid-circuit measurements are handled exactly. Intended for
 * circuits with a modest number of measurements.
 */
Distribution exactDistribution(const QuantumCircuit& circuit);

/**
 * Final pure state of a measurement-free, noiseless circuit.
 * Rejects circuits containing measurements or resets. Evolves through
 * the gate-fusion pass with default options; the overload exposes the
 * fusion and SIMD knobs (disable both for a reassociation-free
 * reference evolution in tests).
 */
Statevector finalState(const QuantumCircuit& circuit);
Statevector finalState(const QuantumCircuit& circuit,
                       const FusionOptions& fusion, bool simd = true);

} // namespace qa

#endif // QA_SIM_STATEVECTOR_HPP
