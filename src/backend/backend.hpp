/**
 * @file
 * Pluggable simulation-backend subsystem (DESIGN.md Sec. 11).
 *
 * A Backend turns (circuit, options) into a PreparedCircuit — the
 * shot-invariant work done once — and a PreparedCircuit hands out
 * ShotSamplers — the per-worker mutable scratch — so one pooled shot
 * loop (runPrepared) can drive any backend with the engine's
 * counter-based RNG streams. Every implementation's PreparedCircuit is
 * the one shot plan of backend/shot_program.hpp over a per-backend state
 * adapter. Four implementations are registered:
 *
 *  - statevector: the general dense engine with prefix caching and the
 *    terminal-sampling fast path; O(2^n) per gate.
 *  - density_matrix: exact channel evolution of rho with sampling from
 *    the final diagonal; O(4^n) per gate, shots nearly free; terminal
 *    measurements only.
 *  - stabilizer: Aaronson-Gottesman tableau for Clifford circuits
 *    (including recognized-matrix Cliffords and Pauli/readout noise);
 *    O(n) per gate row-update, O(n^2) per measurement.
 *  - mps: bond-dimension-capped matrix product state (mps/mps_state.hpp)
 *    for wide low-entanglement circuits; O(chi^3) per 2q gate, SWAP
 *    routing for long-range pairs, tracked truncation error.
 *
 * Determinism contract: for a fixed resolved backend, counts are
 * bit-identical across thread counts (per-shot RNG streams). Across
 * different backends, counts agree in distribution only — never compare
 * them bit-wise.
 */
#ifndef QA_BACKEND_BACKEND_HPP
#define QA_BACKEND_BACKEND_HPP

#include <memory>
#include <string>

#include "backend/router.hpp"
#include "common/rng.hpp"
#include "sim/options.hpp"
#include "sim/result.hpp"
#include "sim/statevector.hpp"

namespace qa
{
namespace backend
{

/** What a backend can and cannot execute (DESIGN.md capability matrix). */
struct BackendCapabilities
{
    BackendKind kind = BackendKind::kStatevector;
    const char* name = "";

    /** Only Clifford gates (named or matrix-recognized). */
    bool clifford_only = false;

    /** Measurements and resets before the end of the circuit. */
    bool mid_circuit = false;

    /** Arbitrary Kraus channels. */
    bool kraus_noise = false;

    /** Kraus channels restricted to Pauli mixtures. */
    bool pauli_noise = false;

    /** Classical readout error. */
    bool readout_noise = false;

    /** Hard qubit bound (0 = memory-bound only). */
    int max_qubits = 0;
};

/**
 * Per-worker shot sampler: owns the mutable scratch one pool worker
 * needs, so concurrent samplers from the same PreparedCircuit never
 * share state. runOne draws only from the caller's Rng — one shot is
 * deterministic given the stream.
 */
class ShotSampler
{
  public:
    virtual ~ShotSampler() = default;

    /** Execute one shot and return the classical bitstring. */
    virtual std::string runOne(Rng& rng) = 0;
};

/**
 * The shot-invariant preparation of one job on one backend: circuit
 * analysis, prefix/tableau evolution, exact density evolution —
 * whatever the backend computes once and every shot reuses. Immutable
 * after construction; makeSampler() is thread-safe.
 */
class PreparedCircuit
{
  public:
    virtual ~PreparedCircuit() = default;

    virtual std::unique_ptr<ShotSampler> makeSampler() const = 0;

    /**
     * Cumulative truncation error the preparation accepted (discarded
     * Schmidt weight for the MPS backend's shared prefix). Exact
     * backends return 0.0. Deterministic — shot-loop truncation is
     * deliberately not aggregated here, so the value is identical for
     * any thread count.
     */
    virtual double truncationError() const { return 0.0; }
};

/**
 * A simulation backend. Stateless and shared (backendFor returns
 * process-lifetime singletons); all per-job state lives in the
 * PreparedCircuit. prepare() borrows the circuit and options.noise —
 * both must outlive the prepared run — and throws UserError when the
 * job is outside the backend's capabilities (the router exists to avoid
 * that, but direct callers get a clear error).
 */
class Backend
{
  public:
    virtual ~Backend() = default;

    virtual BackendCapabilities capabilities() const = 0;

    virtual std::shared_ptr<const PreparedCircuit>
    prepare(const QuantumCircuit& circuit,
            const SimOptions& options) const = 0;

    /** prepare + runPrepared: the one-call form. */
    Counts runShots(const QuantumCircuit& circuit,
                    const SimOptions& options) const;
};

/** The registered backend singleton for a kind. */
const Backend& backendFor(BackendKind kind);

/**
 * The pooled shot loop over a prepared circuit: runShotPool with one
 * sampler per worker and Rng::forStream(seed, shot) per shot —
 * bit-identical merged counts for any thread count, honoring the
 * deadline contract (partial counts flagged `truncated`).
 */
Counts runPrepared(const PreparedCircuit& prepared,
                   const SimOptions& options);

/** A routed, prepared job: the decision plus the prepared circuit. */
struct RoutedRun
{
    BackendChoice choice;
    std::shared_ptr<const PreparedCircuit> prepared;
};

/**
 * Route and prepare in one step. Throws UserError (kBadRequest) when an
 * explicit backend request cannot run the job; auto routing always
 * succeeds.
 */
RoutedRun prepareRun(const QuantumCircuit& circuit,
                     const SimOptions& options);

namespace detail
{
// Singleton accessors for the registered implementations (one per
// translation unit under src/backend/); reach them via backendFor.
const Backend& statevectorBackend();
const Backend& densityMatrixBackend();
const Backend& stabilizerBackend();
const Backend& mpsBackend();
} // namespace detail

} // namespace backend
} // namespace qa

#endif // QA_BACKEND_BACKEND_HPP
