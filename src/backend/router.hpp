/**
 * @file
 * Per-job backend routing: given a circuit and run options, pick the
 * cheapest capable simulation backend.
 *
 * Routing is a pure function of the circuit structure, the noise model,
 * and the keyed run options (shots, explicit backend request) — never
 * of wall-clock, thread count, or RNG state. That makes the decision
 * bit-identically reproducible, which the serve layer relies on when it
 * absorbs the resolved backend into cache keys.
 *
 * routeShots never throws: an explicit request for a backend that
 * cannot run the job comes back with `capable == false` and a reason,
 * and the caller (dispatch / the serve layer) decides how to surface
 * the error. This keeps jobKey() exception-free.
 */
#ifndef QA_BACKEND_ROUTER_HPP
#define QA_BACKEND_ROUTER_HPP

#include <string>

#include "backend/analyzer.hpp"
#include "sim/fusion.hpp"
#include "sim/options.hpp"
#include "sim/statevector.hpp"

namespace qa
{
namespace backend
{

/** The routing decision for one job, recorded in results and metrics. */
struct BackendChoice
{
    /** The resolved backend (the requested one for explicit requests). */
    BackendKind backend = BackendKind::kStatevector;

    /** True when the caller forced the backend instead of auto-routing. */
    bool explicit_request = false;

    /**
     * False when an explicitly requested backend cannot run the job
     * (e.g. stabilizer for a T-gate circuit). Auto-routed choices are
     * always capable. Executing an incapable choice is the caller's
     * error to raise.
     */
    bool capable = true;

    /** Circuit classification behind the decision. */
    CircuitClass klass = CircuitClass::kGeneral;

    /** Non-Clifford gate count found by the analyzer. */
    int non_clifford_gates = 0;

    /**
     * True when the job's options enable gate fusion for the dense
     * backends (options.fusion). Per-gate Kraus noise
     * still reverts the affected stream to raw gates at prepare time.
     */
    bool fusion_enabled = false;

    /**
     * What the fusion pass does to this circuit's full stream (empty
     * when fusion_enabled is false). Deterministic — safe to absorb
     * into cache keys and explain output.
     */
    FusionStats fusion;

    /**
     * MPS cost-model facts, filled for every routed job (pure function
     * of circuit and options, whatever backend wins): the bond cap a
     * chi-capped run would actually reach, the entanglement width of
     * the 2q-connectivity graph across the line ordering, and the
     * estimated truncation-error bound at the configured cap.
     */
    int mps_chi = 1;
    int mps_ent_width = 0;
    double mps_trunc_bound = 0.0;

    /** Human-readable explanation of the decision (one sentence). */
    std::string reason;
};

/**
 * Route one shot-execution job. Considers, in order: an explicit
 * `options.backend` request (validated, never overridden), the
 * stabilizer fast path (Clifford circuit, noise absent or Pauli/readout
 * only), the density-matrix backend (non-Pauli channels on a small
 * terminal-measurement circuit where exact channel evolution beats
 * per-shot trajectory replay), and finally the general statevector
 * engine. Never throws.
 */
BackendChoice routeShots(const QuantumCircuit& circuit,
                         const SimOptions& options);

/**
 * Relative cost of executing one extra gate on a backend at the given
 * circuit width: O(n) for the tableau, O(2^n) / O(4^n) for the dense
 * backends (exponents clamped to keep the weight finite). The
 * assertion compiler multiplies a candidate lowering's gate count by
 * this weight — under the backend the instrumented circuit would route
 * to — to compare executable forms on equal footing. Deterministic,
 * like everything else in this header.
 */
double assertionGateWeight(BackendKind kind, int num_qubits);

/**
 * Multi-line human-readable report of the analysis and routing for a
 * job: circuit profile, noise profile, per-backend capability verdicts,
 * and the chosen backend with its reason. Powers the qa_explain tool
 * and the wire explain op; executes nothing.
 */
std::string explainRouting(const QuantumCircuit& circuit,
                           const SimOptions& options);

} // namespace backend
} // namespace qa

#endif // QA_BACKEND_ROUTER_HPP
