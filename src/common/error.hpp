/**
 * @file
 * Error-handling primitives shared by every qassert module.
 *
 * Two failure categories, mirroring the gem5 fatal/panic split:
 *  - UserError: the caller violated a documented precondition (bad qubit
 *    index, non-unitary matrix, unassertable state set, ...). Recoverable
 *    by fixing the call site.
 *  - InternalError: a qassert invariant broke; indicates a library bug.
 *
 * UserErrors additionally carry an ErrorCode so machine consumers (the
 * fault-injection campaign runner, policy drivers, CI harnesses) can
 * classify failures without parsing message text.
 *
 * A UserError carries its message only: the service ships that text to
 * clients, so it must not name the library's source files. An
 * InternalError appends ` [src/<module>/<file>.cpp:<line>]` (the build
 * strips the checkout prefix from __FILE__) to locate the broken
 * invariant.
 */
#ifndef QA_COMMON_ERROR_HPP
#define QA_COMMON_ERROR_HPP

#include <sstream>
#include <stdexcept>
#include <string>

namespace qa
{

/**
 * Machine-readable failure classification carried by UserError.
 * Extend rather than reuse: a code's meaning is frozen once tests or
 * campaign reports depend on it.
 */
enum class ErrorCode
{
    kGeneric,           ///< Unclassified precondition failure.
    kBadFaultSite,      ///< Injection site does not address a gate.
    kUnsupportedFault,  ///< Fault kind not applicable to the site.
    kInvalidNoiseModel, ///< Noise model failed validate-on-use.
    kPolicyUnsupported, ///< Recovery policy incompatible with the slots.
    kPolicyExhausted,   ///< Bounded retries used up without a pass.
    kQasmSyntax,        ///< Malformed QASM input.
    kDeadlineExpired,   ///< Deadline elapsed before any work completed.
    kWorkerFailure,     ///< A parallel worker failed; first cause chained.
    kQueueFull,         ///< Service admission queue at capacity.
    kServiceStopped,    ///< Submission to a stopped/stopping service.
    kBadRequest,        ///< Malformed service request (wire protocol).
    kWorkerLost,        ///< Scheduler worker wedged/died while executing.
    kShedding,          ///< Circuit breaker open; load shed at admission.
    kJournalCorrupt,    ///< Journal record damaged beyond the torn tail.
    kNoShardAvailable,  ///< Fleet router found no live shard for a job.
    kUnsupportedAssertion ///< Assertion projector admits no lowering
                          ///< under the requested knobs (acomp).
};

/** Stable human-readable name of an error code. */
const char* errorCodeName(ErrorCode code);

/** Exception for caller mistakes (bad arguments, violated preconditions). */
class UserError : public std::runtime_error
{
  public:
    explicit UserError(const std::string& msg,
                       ErrorCode code = ErrorCode::kGeneric)
        : std::runtime_error("qassert user error: " + msg), code_(code)
    {}

    /** Machine-readable classification of the failure. */
    ErrorCode code() const { return code_; }

  private:
    ErrorCode code_;
};

/** Exception for broken internal invariants (library bugs). */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string& msg)
        : std::logic_error("qassert internal error: " + msg)
    {}
};

namespace detail
{

/** Throws InternalError with the failing invariant's source location. */
[[noreturn]] inline void
throwInternal(const char* file, int line, const std::string& msg)
{
    std::ostringstream oss;
    oss << msg << " [" << file << ":" << line << "]";
    throw InternalError(oss.str());
}

} // namespace detail

} // namespace qa

/** Throw qa::UserError when a documented precondition fails. */
#define QA_REQUIRE(cond, msg)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            throw ::qa::UserError(std::string(msg));                        \
        }                                                                   \
    } while (0)

/** QA_REQUIRE carrying a machine-readable ErrorCode. */
#define QA_REQUIRE_CODE(cond, code, msg)                                    \
    do {                                                                    \
        if (!(cond)) {                                                      \
            throw ::qa::UserError(std::string(msg), (code));                \
        }                                                                   \
    } while (0)

/** Throw qa::InternalError when a library invariant fails. */
#define QA_ASSERT(cond, msg)                                                \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::qa::detail::throwInternal(__FILE__, __LINE__,                 \
                                        std::string(msg));                  \
        }                                                                   \
    } while (0)

/** Unconditionally throw qa::UserError with a streamed message. */
#define QA_FAIL(msg) throw ::qa::UserError(std::string(msg))

/** QA_FAIL carrying a machine-readable ErrorCode. */
#define QA_FAIL_CODE(code, msg) throw ::qa::UserError(std::string(msg), (code))

#endif // QA_COMMON_ERROR_HPP
