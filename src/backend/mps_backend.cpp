/**
 * @file
 * MPS backend: wide low-entanglement circuits on the bond-capped
 * matrix-product-state core (mps/mps_state.hpp), O(chi^3) per two-site
 * update where the dense engines are O(2^n) per instruction.
 *
 * A ShotProgram state adapter: gates before the first measurement or
 * reset evolve one shared chain; each shot copies it and replays only
 * the stochastic suffix. MpsState samples any state, so the trailing
 * run of measurements is served by one left-to-right conditional sample
 * per shot (no collapse, no re-canonicalization), and terminal-
 * measurement circuits never copy the chain at all.
 *
 * Gate set: any 1q/2q gate with a concrete unitary (2q pairs at any
 * distance — MpsState SWAP-routes). 3q gates (ccx, cswap, the SWAP-test
 * assertion ancilla ops) are lowered to the 1q+CX basis at prepare
 * time. Wider gates, and gate-level Kraus channels, are capability
 * violations and throw kBadRequest; classical readout error is applied
 * to recorded bits exactly like the other backends.
 *
 * The truncation contract: every two-site update discards the Schmidt
 * weight beyond the chi cap and accumulates it. truncationError()
 * reports the shared prefix's total — deterministic for any thread
 * count, and exactly 0.0 when the cap never bound.
 */
#include "backend/shot_program.hpp"

#include "mps/mps_state.hpp"
#include "transpile/lower.hpp"

namespace qa
{
namespace backend
{

namespace
{

struct MpsAdapter
{
    using State = mps::MpsState;
    using Gate = Instruction;

    int num_qubits = 0;

    /** Copy instructions, lowering 3q gates to the 1q+CX basis. */
    std::vector<Instruction>
    lower(const std::vector<Instruction>& instrs, size_t begin, size_t end,
          bool) const
    {
        std::vector<Instruction> out;
        for (size_t i = begin; i < end; ++i) {
            lowerInstruction(instrs[i], &out);
        }
        return out;
    }

    Instruction resolve(Instruction gate) const { return gate; }

    void
    apply(State& state, const Gate& gate) const
    {
        if (gate.arity() == 1) {
            state.apply1q(gate.matrix, gate.qubits[0]);
        } else {
            state.apply2q(gate.matrix, gate.qubits[0], gate.qubits[1]);
        }
    }

    int
    measure(State& state, int q, Rng& rng) const
    {
        return state.measureCollapse(q, rng);
    }

    void
    reset(State& state, int q, Rng& rng) const
    {
        state.resetQubit(q, rng);
    }

    void
    sampleAll(const State& state, Rng& rng, std::string* bits) const
    {
        state.sampleAll(rng, bits);
    }

    double
    truncationError(const State& prefix) const
    {
        return prefix.stats().discarded_weight;
    }

    void
    lowerInstruction(const Instruction& instr,
                     std::vector<Instruction>* out) const
    {
        if (instr.type != OpType::kGate) {
            out->push_back(instr);
            return;
        }
        const int arity = instr.arity();
        if (arity <= 2) {
            QA_REQUIRE_CODE(instr.matrix.rows() == (arity == 1 ? 2u : 4u),
                            ErrorCode::kBadRequest,
                            "mps backend needs a concrete unitary for "
                            "gate '" +
                                instr.name + "'");
            out->push_back(instr);
            return;
        }
        QA_REQUIRE_CODE(arity == 3, ErrorCode::kBadRequest,
                        "mps backend cannot run " + std::to_string(arity) +
                            "-qubit gate '" + instr.name +
                            "' (max arity 3, lowered)");
        // Lower through the transpiler on a full-width scratch circuit
        // so qubit indices survive unchanged.
        QuantumCircuit wrapper(num_qubits, 0);
        wrapper.append(instr);
        const QuantumCircuit lowered = lowerToBasis(wrapper);
        for (const Instruction& low : lowered.instructions()) {
            QA_REQUIRE(low.isGate() && low.arity() <= 2,
                       "basis lowering produced a non-basis op");
            lowerInstruction(low, out);
        }
    }
};

class MpsBackend final : public Backend
{
  public:
    BackendCapabilities
    capabilities() const override
    {
        BackendCapabilities caps;
        caps.kind = BackendKind::kMps;
        caps.name = backendName(BackendKind::kMps);
        caps.clifford_only = false;
        caps.mid_circuit = true;
        caps.kraus_noise = false;
        caps.pauli_noise = false;
        caps.readout_noise = true;
        caps.max_qubits = 4096; // chain-length bound, not memory
        return caps;
    }

    std::shared_ptr<const PreparedCircuit>
    prepare(const QuantumCircuit& circuit,
            const SimOptions& options) const override
    {
        const NoiseModel* noise = activeNoise(options.noise);
        QA_REQUIRE_CODE(noise == nullptr || (noise->noise_1q.empty() &&
                                             noise->noise_2q.empty()),
                        ErrorCode::kBadRequest,
                        "mps backend cannot run gate-level Kraus channels "
                        "(pure-state chain, no per-gate trajectory noise)");
        return std::make_shared<ShotProgram<MpsAdapter>>(
            circuit, noise, MpsAdapter{circuit.numQubits()},
            mps::MpsState(std::max(circuit.numQubits(), 1),
                          std::max(options.mps_chi, 1)));
    }
};

} // namespace

namespace detail
{

const Backend&
mpsBackend()
{
    static const MpsBackend instance;
    return instance;
}

} // namespace detail

} // namespace backend
} // namespace qa
