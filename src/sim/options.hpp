/**
 * @file
 * Shot-execution options shared by every simulation backend, plus the
 * backend-selection vocabulary (BackendKind / BackendRequest).
 *
 * This header is the single home of the execution defaults. The serve
 * layer's JobSpec and wire parser defer to `defaults::` instead of
 * repeating literals, so adding an option (like the backend request)
 * cannot leave the engine and the job parser disagreeing about its
 * default.
 */
#ifndef QA_SIM_OPTIONS_HPP
#define QA_SIM_OPTIONS_HPP

#include <cstdint>
#include <string>

namespace qa
{

struct NoiseModel;

/** One concrete simulation backend (see backend/backend.hpp). */
enum class BackendKind
{
    kStatevector,   ///< Dense pure-state evolution, O(2^n) per gate.
    kDensityMatrix, ///< Dense mixed-state evolution, O(4^n) per gate.
    kStabilizer,    ///< Clifford tableau, O(n) per gate / O(n^2) measure.
    kMps            ///< Bond-capped matrix product state, O(chi^3) per 2q gate.
};

/** Number of BackendKind values (for per-kind tables). */
inline constexpr int kNumBackendKinds = 4;

/** What a caller may ask for: a concrete backend, or automatic routing. */
enum class BackendRequest
{
    kAuto,          ///< Router picks the cheapest capable backend.
    kStatevector,
    kDensityMatrix,
    kStabilizer,
    kMps
};

/** Stable wire/log name of a backend kind. */
inline const char*
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::kStatevector:   return "statevector";
      case BackendKind::kDensityMatrix: return "density_matrix";
      case BackendKind::kStabilizer:    return "stabilizer";
      case BackendKind::kMps:           return "mps";
    }
    return "unknown";
}

/** The explicit request that forces a backend kind. */
inline BackendRequest
requestFor(BackendKind kind)
{
    switch (kind) {
      case BackendKind::kStatevector:   return BackendRequest::kStatevector;
      case BackendKind::kDensityMatrix: return BackendRequest::kDensityMatrix;
      case BackendKind::kStabilizer:    return BackendRequest::kStabilizer;
      case BackendKind::kMps:           return BackendRequest::kMps;
    }
    return BackendRequest::kAuto;
}

/** Stable wire/log name of a backend request. */
inline const char*
backendRequestName(BackendRequest request)
{
    switch (request) {
      case BackendRequest::kAuto:          return "auto";
      case BackendRequest::kStatevector:   return "statevector";
      case BackendRequest::kDensityMatrix: return "density_matrix";
      case BackendRequest::kStabilizer:    return "stabilizer";
      case BackendRequest::kMps:           return "mps";
    }
    return "unknown";
}

/** Parse a wire backend name; returns false on an unknown name. */
inline bool
parseBackendRequest(const std::string& name, BackendRequest* out)
{
    if (name == "auto") { *out = BackendRequest::kAuto; return true; }
    if (name == "statevector") {
        *out = BackendRequest::kStatevector;
        return true;
    }
    if (name == "density_matrix" || name == "density") {
        *out = BackendRequest::kDensityMatrix;
        return true;
    }
    if (name == "stabilizer") {
        *out = BackendRequest::kStabilizer;
        return true;
    }
    if (name == "mps") {
        *out = BackendRequest::kMps;
        return true;
    }
    return false;
}

/** The execution defaults, shared by SimOptions and serve::JobSpec. */
namespace defaults
{
inline constexpr int kShots = 1024;
inline constexpr uint64_t kSeed = 12345;

/**
 * Engine-level default thread count: 0 picks hardware concurrency.
 * The serve layer overrides this with kServeThreads.
 */
inline constexpr int kSimThreads = 0;

/**
 * Serve-layer default for a job's own shot loop: 1 keeps the
 * scheduler's worker pool as the only parallelism.
 */
inline constexpr int kServeThreads = 1;

inline constexpr double kDeadlineMs = 0.0;
inline constexpr BackendRequest kBackend = BackendRequest::kAuto;

/** Gate fusion on by default; see sim/fusion.hpp. */
inline constexpr bool kFusion = true;

/** Largest qubit union one fused group may cover (2 or 3). */
inline constexpr int kFusionMaxQubits = 2;

/**
 * MPS bond-dimension cap: every two-site update keeps at most this many
 * Schmidt coefficients. 64 serves the 30-50 qubit low-entanglement
 * regime with per-gate cost ~2^18 flops.
 */
inline constexpr int kMpsChi = 64;

/**
 * Largest estimated truncation-error bound (from the router's
 * entanglement heuristic) at which the MPS backend is considered
 * capable of a circuit.
 */
inline constexpr double kMpsTruncTol = 1e-6;
} // namespace defaults

/** Options for shot-based simulation. */
struct SimOptions
{
    int shots = defaults::kShots;
    uint64_t seed = defaults::kSeed;
    const NoiseModel* noise = nullptr;

    /**
     * Worker threads for the shot loop: 0 picks hardware_concurrency,
     * 1 runs the loop inline. Seeded runs produce bit-identical Counts
     * for any value (per-shot counter-based RNG streams).
     */
    int num_threads = defaults::kSimThreads;

    /**
     * Wall-clock budget in milliseconds; <= 0 runs unbounded. When the
     * budget expires mid-run the engine stops cooperatively, joins every
     * worker, and returns the shots completed so far with
     * Counts::truncated set. Truncated runs are not bit-reproducible
     * (which shots finish depends on timing); completed runs are.
     */
    double deadline_ms = defaults::kDeadlineMs;

    /**
     * Backend selection: kAuto routes to the cheapest capable backend
     * (backend/router.hpp); a concrete request forces that backend and
     * fails with ErrorCode::kBadRequest if it cannot run the circuit.
     */
    BackendRequest backend = defaults::kBackend;

    /**
     * Gate fusion for the dense backends (sim/fusion.hpp): coalesce
     * runs of gates sharing <= fusion_max_qubits qubits into single
     * kernels at prepare time. Never applied to gates that receive
     * per-gate Kraus noise (fusion would change
     * gate arity and thus which channel list applies). Results equal
     * the unfused evolution up to floating-point reassociation; fixed
     * seeds keep sampled counts bit-identical across thread counts
     * either way.
     */
    bool fusion = defaults::kFusion;
    int fusion_max_qubits = defaults::kFusionMaxQubits;

    /**
     * MPS backend bond-dimension cap (chi). Larger values widen the
     * class of circuits the backend can run exactly at the cost of
     * O(chi^3) two-site updates. Part of the routing decision and the
     * serve cache key for MPS-routed jobs.
     */
    int mps_chi = defaults::kMpsChi;

    /**
     * MPS capability tolerance: the router treats the MPS backend as
     * incapable of a circuit whose estimated truncation-error bound
     * exceeds this. Forcing backend=mps past the tolerance is a typed
     * kBadRequest, not a silent fallback.
     */
    double mps_trunc_tol = defaults::kMpsTruncTol;
};

} // namespace qa

#endif // QA_SIM_OPTIONS_HPP
