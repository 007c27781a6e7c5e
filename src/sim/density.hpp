/**
 * @file
 * Density-matrix simulator: exact mixed-state evolution with exact noise
 * channels (no trajectory sampling). Used to cross-validate the
 * statevector backend and to compute the reduced/mixed states the paper's
 * mixed-state assertions are built from.
 */
#ifndef QA_SIM_DENSITY_HPP
#define QA_SIM_DENSITY_HPP

#include "circuit/circuit.hpp"
#include "linalg/matrix.hpp"
#include "sim/noise.hpp"
#include "sim/result.hpp"

namespace qa
{

/** Mutable n-qubit density matrix with gate/channel/measurement support. */
class DensityState
{
  public:
    /** Ground state |0...0><0...0|. */
    explicit DensityState(int num_qubits);

    /** Adopt an explicit density matrix (validated). */
    explicit DensityState(CMatrix rho);

    int numQubits() const { return num_qubits_; }
    const CMatrix& rho() const { return rho_; }

    /** Conjugate the state by a 2^k unitary on the listed qubits. */
    void applyMatrix(const CMatrix& m, const std::vector<int>& qubits);

    /** Apply a gate instruction. */
    void applyGate(const Instruction& instr);

    /** Apply a single-qubit Kraus channel exactly: rho -> sum K rho K^+. */
    void applyKraus(const KrausChannel& channel, int q);

    /** Apply the model's gate channels to every qubit `instr` touches. */
    void applyGateNoise(const Instruction& instr, const NoiseModel& noise);

    /** Probability that measuring qubit q yields 1. */
    double probabilityOne(int q) const;

    /** Project qubit q onto an outcome and renormalize. */
    void collapse(int q, int outcome);

  private:
    /** Apply m to row indices (left multiplication on the subsystem). */
    void applyLeft(const CMatrix& m, const std::vector<int>& qubits);

    int num_qubits_;
    CMatrix rho_;
};

/**
 * Exact outcome distribution under the density-matrix backend, branching
 * at measurements/resets; gate noise and readout error (if a model is
 * given) are applied exactly rather than sampled.
 */
Distribution exactDistributionDM(const QuantumCircuit& circuit,
                                 const NoiseModel* noise = nullptr);

/**
 * Final density matrix of a measurement-free circuit, with exact channel
 * noise when a model is given.
 */
CMatrix finalDensity(const QuantumCircuit& circuit,
                     const NoiseModel* noise = nullptr);

} // namespace qa

#endif // QA_SIM_DENSITY_HPP
