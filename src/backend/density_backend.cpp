/**
 * @file
 * Density-matrix backend: a ShotProgram state adapter that evolves rho
 * through every gate with its noise channels applied exactly (no
 * trajectory sampling), so the whole circuit is shot-invariant prefix
 * and each shot is one SampleTable draw over the final diagonal plus
 * readout error. Capability limits: terminal measurements only, no
 * resets, and a hard qubit cap (4^n matrix entries).
 *
 * Shots are nearly free, which is what makes this backend win for
 * non-Pauli channels on small circuits despite the 4^n state.
 */
#include "backend/shot_program.hpp"

#include "sim/density.hpp"
#include "sim/fusion.hpp"

namespace qa
{
namespace backend
{

namespace
{

constexpr int kMaxQubits = 8;

struct DensityAdapter
{
    using State = DensityState;
    using Gate = Instruction;

    const NoiseModel* noise = nullptr;
    FusionOptions fusion;

    /**
     * Fuse only when no per-gate Kraus channel is active: fusion
     * changes gate arity, which would redirect apply's channel loop to
     * the wrong list (noise_1q vs noise_2q).
     */
    std::vector<Instruction>
    lower(const std::vector<Instruction>& instrs, size_t begin, size_t end,
          bool) const
    {
        const bool kraus = noise != nullptr && (!noise->noise_1q.empty() ||
                                                !noise->noise_2q.empty());
        if (!fusion.enabled || kraus) {
            return {instrs.begin() + long(begin), instrs.begin() + long(end)};
        }
        return fuseInstructions(instrs, begin, end, fusion).instructions;
    }

    Instruction resolve(Instruction gate) const { return gate; }

    /**
     * Exact evolution: the gate, then its channels on each touched
     * qubit — the order the statevector engine samples trajectories
     * in, so distributions match.
     */
    void
    apply(State& state, const Gate& gate) const
    {
        state.applyGate(gate);
        if (noise == nullptr) return;
        const auto& channels =
            gate.arity() == 1 ? noise->noise_1q : noise->noise_2q;
        for (int q : gate.qubits) {
            for (const KrausChannel& channel : channels) {
                state.applyKraus(channel, q);
            }
        }
    }

    /** The diagonal, clamping tiny negative entries (roundoff). */
    std::vector<double>
    weights(const State& state) const
    {
        const CMatrix& rho = state.rho();
        std::vector<double> out(rho.rows());
        for (size_t i = 0; i < out.size(); ++i) {
            out[i] = std::max(0.0, rho(i, i).real());
        }
        return out;
    }
};

class DensityBackend final : public Backend
{
  public:
    BackendCapabilities
    capabilities() const override
    {
        BackendCapabilities caps;
        caps.kind = BackendKind::kDensityMatrix;
        caps.name = backendName(BackendKind::kDensityMatrix);
        caps.clifford_only = false;
        caps.mid_circuit = false;
        caps.kraus_noise = true;
        caps.pauli_noise = true;
        caps.readout_noise = true;
        caps.max_qubits = kMaxQubits;
        return caps;
    }

    /**
     * ShotProgram rejects any circuit that leaves a suffix to replay
     * (a reset, or a gate after a measurement): this adapter has no
     * per-shot measure or reset.
     */
    std::shared_ptr<const PreparedCircuit>
    prepare(const QuantumCircuit& circuit,
            const SimOptions& options) const override
    {
        const NoiseModel* noise = activeNoise(options.noise);
        QA_REQUIRE(circuit.numQubits() <= kMaxQubits,
                   "density-matrix backend supports at most " +
                       std::to_string(kMaxQubits) + " qubits");
        return std::make_shared<ShotProgram<DensityAdapter>>(
            circuit, noise,
            DensityAdapter{
                noise,
                FusionOptions{options.fusion, options.fusion_max_qubits}},
            DensityState(circuit.numQubits()));
    }
};

} // namespace

namespace detail
{

const Backend&
densityMatrixBackend()
{
    static const DensityBackend instance;
    return instance;
}

} // namespace detail

} // namespace backend
} // namespace qa
