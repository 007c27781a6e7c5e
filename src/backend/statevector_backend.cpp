/**
 * @file
 * The dense statevector engine behind the Backend interface: a state
 * adapter for ShotProgram over fused Instructions, with per-trajectory
 * Kraus noise. The terminal tail is sampled from a SampleTable over the
 * prefix when nothing stochastic precedes it.
 */
#include "backend/shot_program.hpp"

#include <cmath>

#include "sim/fusion.hpp"

namespace qa
{
namespace backend
{

namespace
{

struct StatevectorAdapter
{
    using State = Statevector;
    using Gate = Instruction;

    const NoiseModel* noise = nullptr;
    FusionOptions fusion;

    /**
     * The prefix never holds a noisy gate (that is where the split
     * falls), so it always fuses. Replayed gates fuse only without
     * Kraus noise: a fused gate has a different arity than its inputs,
     * which would redirect applyNoise to the wrong channel list.
     */
    std::vector<Instruction>
    lower(const std::vector<Instruction>& instrs, size_t begin, size_t end,
          bool replayed) const
    {
        const bool kraus = noise != nullptr && (!noise->noise_1q.empty() ||
                                                !noise->noise_2q.empty());
        if (!fusion.enabled || (replayed && kraus)) {
            return {instrs.begin() + long(begin), instrs.begin() + long(end)};
        }
        return fuseInstructions(instrs, begin, end, fusion).instructions;
    }

    Instruction resolve(Instruction gate) const { return gate; }

    void apply(State& state, const Gate& gate) const { state.applyGate(gate); }

    void
    applyNoise(State& state, const Gate& gate, Rng& rng) const
    {
        if (noise == nullptr) return;
        const auto& channels =
            gate.arity() == 1 ? noise->noise_1q : noise->noise_2q;
        for (int q : gate.qubits) {
            for (const KrausChannel& channel : channels) {
                state.applyKrausTrajectory(channel, q, rng);
            }
        }
    }

    int
    measure(State& state, int q, Rng& rng) const
    {
        return state.measure(q, rng);
    }

    void reset(State& state, int q, Rng& rng) const { state.reset(q, rng); }

    std::vector<double>
    weights(const State& state) const
    {
        const CVector& amps = state.amplitudes();
        std::vector<double> out(amps.dim());
        for (size_t i = 0; i < out.size(); ++i) out[i] = std::norm(amps[i]);
        return out;
    }
};

class StatevectorBackend final : public Backend
{
  public:
    BackendCapabilities
    capabilities() const override
    {
        BackendCapabilities caps;
        caps.kind = BackendKind::kStatevector;
        caps.name = backendName(BackendKind::kStatevector);
        caps.clifford_only = false;
        caps.mid_circuit = true;
        caps.kraus_noise = true;
        caps.pauli_noise = true;
        caps.readout_noise = true;
        caps.max_qubits = 0; // memory-bound: 2^n amplitudes
        return caps;
    }

    std::shared_ptr<const PreparedCircuit>
    prepare(const QuantumCircuit& circuit,
            const SimOptions& options) const override
    {
        const NoiseModel* noise = activeNoise(options.noise);
        return std::make_shared<ShotProgram<StatevectorAdapter>>(
            circuit, noise,
            StatevectorAdapter{
                noise,
                FusionOptions{options.fusion, options.fusion_max_qubits}},
            Statevector(circuit.numQubits()));
    }
};

} // namespace

namespace detail
{

const Backend&
statevectorBackend()
{
    static const StatevectorBackend instance;
    return instance;
}

} // namespace detail

} // namespace backend
} // namespace qa
