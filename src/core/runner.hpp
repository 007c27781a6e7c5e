/**
 * @file
 * Assertion execution and reporting: run an AssertedProgram (sampled or
 * exact, with or without noise), compute per-slot assertion-error rates,
 * and post-select the program's outcomes on assertion success — the
 * error-filtering use of assertions the paper measures in Sec. IX-B.
 */
#ifndef QA_CORE_RUNNER_HPP
#define QA_CORE_RUNNER_HPP

#include "backend/router.hpp"
#include "core/asserted_program.hpp"
#include "sim/noise.hpp"
#include "sim/result.hpp"
#include "sim/statevector.hpp"

namespace qa
{

/** Sampled (shot-based) assertion run report. */
struct AssertionOutcome
{
    /** Fraction of shots where the slot flagged an error. */
    std::vector<double> slot_error_rate;

    /** Fraction of shots where no assertion flagged an error. */
    double pass_rate = 1.0;

    /** Program-clbit histogram over all shots. */
    Counts program_counts;

    /** Program-clbit histogram post-selected on assertion success. */
    Counts program_counts_passed;

    /** Full raw histogram over every classical bit. */
    Counts raw;
};

/** Run with the statevector backend (trajectory noise if configured). */
AssertionOutcome runAsserted(const AssertedProgram& program,
                             const SimOptions& options);

/** Exact (probability) assertion run report. */
struct AssertionOutcomeExact
{
    std::vector<double> slot_error_prob;
    double pass_prob = 1.0;
    Distribution program_dist;
    Distribution program_dist_passed;
    Distribution raw;
};

/**
 * Exact outcome distribution of `circuit`: statevector branching when
 * `noise` is null or disabled, density-matrix evolution with exact
 * channels and readout error otherwise.
 */
Distribution exactRunDistribution(const QuantumCircuit& circuit,
                                  const NoiseModel* noise = nullptr);

/** Exact distribution run of the asserted circuit (exactRunDistribution). */
AssertionOutcomeExact runAssertedExact(const AssertedProgram& program,
                                       const NoiseModel* noise = nullptr);

/**
 * Reaction to a failing assertion slot during a shot run. The paper's
 * evaluation only post-selects (Sec. IX-B error filtering); a hardened
 * runner needs the full range from fail-fast to self-repair.
 */
enum class AssertionPolicy
{
    /** Stop the run at the first shot with a flagged slot. */
    kAbort,

    /** Post-select: drop flagged shots from the program output (the
     *  paper's Sec. IX-B filtering; the default). */
    kDiscard,

    /** Re-execute a flagged shot with fresh per-attempt randomness up
     *  to a bounded attempt count; discard if every attempt flags. */
    kRetry,

    /** Keep flagged shots: valid when every slot uses the SWAP-based
     *  design, which re-prepares the asserted state on the tested
     *  qubits regardless of the measured outcome (Sec. IV), so the
     *  program continued from a repaired state. */
    kRepair
};

/** Human-readable policy name. */
const char* policyName(AssertionPolicy policy);

/** Recovery-policy configuration for runAssertedPolicy. */
struct PolicyOptions
{
    AssertionPolicy policy = AssertionPolicy::kDiscard;

    /** Total attempts per shot under kRetry (>= 1). */
    int max_attempts = 3;
};

/**
 * Shot-level report of a policy run. Detector statistics
 * (slot_error_rate, pass_rate) are always measured on the first attempt
 * of each completed shot; the policy only decides which shots reach the
 * accepted program output.
 */
struct PolicyOutcome
{
    AssertionPolicy policy = AssertionPolicy::kDiscard;

    /** Accepted shots' program-clbit histogram. */
    Counts program_counts;

    /** Accepted shots' full raw histogram (every classical bit). */
    Counts raw;

    /** First-attempt fraction of completed shots flagging each slot. */
    std::vector<double> slot_error_rate;

    /** First-attempt fraction of completed shots with no flagged slot. */
    double pass_rate = 1.0;

    int shots_requested = 0;

    /** Shots whose first attempt executed (deadline may truncate). */
    int shots_completed = 0;

    /** Shots contributing to program_counts / raw. */
    int shots_accepted = 0;

    /** Extra attempts consumed under kRetry. */
    int retries = 0;

    /** kRetry shots discarded after max_attempts flagged attempts. */
    int exhausted = 0;

    /** kRepair shots kept despite at least one flagged slot. */
    int repaired = 0;

    /** True when kAbort stopped the run early. */
    bool aborted = false;

    /** First failing shot index under kAbort (-1 otherwise). */
    int abort_shot = -1;

    /** True when the deadline cancelled the run before all shots ran. */
    bool truncated = false;

    /** Which simulation backend the router resolved for this run. */
    backend::BackendChoice backend;

    /**
     * Cumulative prepare-time truncation error (max across circuit
     * variants) when the run resolved to the MPS backend; 0.0 on the
     * exact backends. Deterministic for any thread count.
     */
    double mps_truncation_error = 0.0;
};

/**
 * Run the program's circuit shot by shot, reacting to flagged assertion
 * slots per `policy`. Seeded runs are bit-identical for any thread
 * count (per-shot/per-attempt counter-based RNG streams) unless
 * truncated by options.deadline_ms. kRepair requires every slot to use
 * the SWAP-based design and throws UserError
 * (ErrorCode::kPolicyUnsupported) otherwise.
 */
PolicyOutcome runAssertedPolicy(const AssertedProgram& program,
                                const SimOptions& options,
                                const PolicyOptions& policy);

/**
 * Generalized policy loop over sub-circuit variants: shot s executes
 * variants[s % variants.size()], slot verdicts are read from
 * `slot_clbits` (all-zero = pass), and the accepted program histogram
 * is the marginal over `program_clbits`. This is the execution engine
 * behind the assertion compiler's kPauliSample lowering (acomp/run.hpp)
 * and the delegation target of runAssertedPolicy (single variant —
 * bit-identical to the historical behavior).
 *
 * Variant 0 is routed normally; the other variants are forced onto the
 * same resolved backend so counts merge under one determinism domain.
 * All variants must share the qubit/clbit layout. kRepair requires
 * `repair_supported` (the caller vouches every slot restores the
 * asserted state) and throws UserError(kPolicyUnsupported) otherwise.
 */
PolicyOutcome runVariantsPolicy(const std::vector<QuantumCircuit>& variants,
                                const std::vector<std::vector<int>>& slot_clbits,
                                const std::vector<int>& program_clbits,
                                bool repair_supported,
                                const SimOptions& options,
                                const PolicyOptions& policy);

} // namespace qa

#endif // QA_CORE_RUNNER_HPP
