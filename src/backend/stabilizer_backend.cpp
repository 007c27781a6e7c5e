/**
 * @file
 * Stabilizer backend: Clifford circuits on the Aaronson-Gottesman
 * tableau (stab/tableau.hpp), polynomial in the qubit count where the
 * dense engines are exponential.
 *
 * A ShotProgram state adapter: the shared prefix evolves one tableau;
 * the tableau has no terminal sample, so each shot copies it (O(n^2)
 * bytes) and replays every measurement. Gates are applied by name when
 * the tableau knows them and via Clifford recognition
 * (stab/clifford.hpp) otherwise, so rz(pi/2) or a Clifford `unitary`
 * instruction routes here too.
 *
 * Noise: Pauli-mixture Kraus channels are sampled per trajectory as
 * sign-only tableau updates (probabilities are state-independent, which
 * is exactly what recognizePauliChannel certifies). Non-Pauli channels and
 * non-Clifford gates are capability violations and throw kBadRequest.
 */
#include "backend/shot_program.hpp"

#include "backend/analyzer.hpp"
#include "stab/tableau.hpp"

namespace qa
{
namespace backend
{

namespace
{

/** A named tableau gate, or a recognized Clifford action. */
struct StabilizerGate
{
    Instruction instr;
    std::optional<CliffordAction> action;
};

struct StabilizerAdapter
{
    using State = StabilizerTableau;
    using Gate = StabilizerGate;

    std::vector<PauliChannel> chan1;
    std::vector<PauliChannel> chan2;

    explicit StabilizerAdapter(const NoiseModel* noise)
    {
        if (noise == nullptr) return;
        adoptChannels(noise->noise_1q, &chan1);
        adoptChannels(noise->noise_2q, &chan2);
    }

    static void
    adoptChannels(const std::vector<KrausChannel>& channels,
                  std::vector<PauliChannel>* out)
    {
        for (const KrausChannel& channel : channels) {
            std::optional<PauliChannel> pauli =
                recognizePauliChannel(channel);
            QA_REQUIRE_CODE(pauli.has_value(), ErrorCode::kBadRequest,
                            "stabilizer backend cannot run non-Pauli "
                            "Kraus channel '" +
                                channel.name() + "'");
            out->push_back(std::move(*pauli));
        }
    }

    std::vector<Instruction>
    lower(const std::vector<Instruction>& instrs, size_t begin, size_t end,
          bool) const
    {
        return {instrs.begin() + long(begin), instrs.begin() + long(end)};
    }

    /** Rejects anything outside the Clifford capability set. */
    Gate
    resolve(Instruction instr) const
    {
        Gate gate;
        if (!isNamedCliffordGate(instr)) {
            gate.action = recognizeClifford(instr);
            QA_REQUIRE_CODE(gate.action.has_value(), ErrorCode::kBadRequest,
                            "stabilizer backend cannot run "
                            "non-Clifford gate '" +
                                instr.name + "'");
        }
        gate.instr = std::move(instr);
        return gate;
    }

    void
    apply(State& tableau, const Gate& gate) const
    {
        if (gate.action) {
            tableau.applyClifford(*gate.action, gate.instr.qubits);
        } else {
            tableau.applyGate(gate.instr);
        }
    }

    /** Sample one Pauli per channel per touched qubit (engine order). */
    void
    applyNoise(State& tableau, const Gate& gate, Rng& rng) const
    {
        for (int q : gate.instr.qubits) {
            for (const PauliChannel& channel :
                 gate.instr.arity() == 1 ? chan1 : chan2) {
                const size_t pick = rng.discrete(channel.weights);
                const auto [x, z] = channel.paulis[pick];
                if (x && z) {
                    tableau.applyY(q);
                } else if (x) {
                    tableau.applyX(q);
                } else if (z) {
                    tableau.applyZ(q);
                }
            }
        }
    }

    int
    measure(State& tableau, int q, Rng& rng) const
    {
        return tableau.measure(q, rng);
    }

    /** Measure-and-correct, matching Statevector::reset. */
    void
    reset(State& tableau, int q, Rng& rng) const
    {
        if (tableau.measure(q, rng) == 1) tableau.applyX(q);
    }
};

class StabilizerBackend final : public Backend
{
  public:
    BackendCapabilities
    capabilities() const override
    {
        BackendCapabilities caps;
        caps.kind = BackendKind::kStabilizer;
        caps.name = backendName(BackendKind::kStabilizer);
        caps.clifford_only = true;
        caps.mid_circuit = true;
        caps.kraus_noise = false;
        caps.pauli_noise = true;
        caps.readout_noise = true;
        caps.max_qubits = 4096; // tableau size bound
        return caps;
    }

    std::shared_ptr<const PreparedCircuit>
    prepare(const QuantumCircuit& circuit,
            const SimOptions& options) const override
    {
        const NoiseModel* noise = activeNoise(options.noise);
        return std::make_shared<ShotProgram<StabilizerAdapter>>(
            circuit, noise, StabilizerAdapter(noise),
            StabilizerTableau(std::max(circuit.numQubits(), 1)));
    }
};

} // namespace

namespace detail
{

const Backend&
stabilizerBackend()
{
    static const StabilizerBackend instance;
    return instance;
}

} // namespace detail

} // namespace backend
} // namespace qa
