#include "core/runner.hpp"

#include <algorithm>

#include "backend/backend.hpp"
#include "common/error.hpp"
#include "sim/density.hpp"
#include "sim/engine.hpp"

namespace qa
{

namespace
{

/** True if every listed clbit reads '0' in the bitstring. */
bool
allZero(const std::string& bits, const std::vector<int>& clbits)
{
    for (int c : clbits) {
        if (bits[c] != '0') return false;
    }
    return true;
}

/** Restrict a raw bitstring to the program clbits, in order. */
std::string
programBits(const std::string& bits, const std::vector<int>& prog_bits)
{
    std::string reduced;
    reduced.reserve(prog_bits.size());
    for (int c : prog_bits) reduced.push_back(bits[c]);
    return reduced;
}

} // namespace

AssertionOutcome
runAsserted(const AssertedProgram& program, const SimOptions& options)
{
    AssertionOutcome outcome;
    outcome.raw = runShots(program.circuit(), options);

    for (const AssertedProgram::Slot& slot : program.slots()) {
        outcome.slot_error_rate.push_back(outcome.raw.fraction(
            [&](const std::string& bits) {
                return !allZero(bits, slot.clbits);
            }));
    }
    const std::vector<int> assertion_bits = program.assertionClbits();
    outcome.pass_rate = outcome.raw.fractionAllZero(assertion_bits);

    const std::vector<int>& prog_bits = program.programClbits();
    outcome.program_counts = marginalCounts(outcome.raw, prog_bits);

    outcome.program_counts_passed = marginalCounts(
        filterCounts(outcome.raw,
                     [&](const std::string& bits) {
                         return allZero(bits, assertion_bits);
                     }),
        prog_bits);
    return outcome;
}

Distribution
exactRunDistribution(const QuantumCircuit& circuit, const NoiseModel* noise)
{
    return noise != nullptr && noise->enabled()
               ? exactDistributionDM(circuit, noise)
               : exactDistribution(circuit);
}

AssertionOutcomeExact
runAssertedExact(const AssertedProgram& program, const NoiseModel* noise)
{
    AssertionOutcomeExact outcome;
    outcome.raw = exactRunDistribution(program.circuit(), noise);

    for (const AssertedProgram::Slot& slot : program.slots()) {
        outcome.slot_error_prob.push_back(outcome.raw.mass(
            [&](const std::string& bits) {
                return !allZero(bits, slot.clbits);
            }));
    }
    const std::vector<int> assertion_bits = program.assertionClbits();
    outcome.pass_prob = outcome.raw.allZero(assertion_bits);

    const std::vector<int>& prog_bits = program.programClbits();
    outcome.program_dist = marginalDistribution(outcome.raw, prog_bits);

    Distribution passed;
    for (const auto& [bits, p] : outcome.raw.probs) {
        if (!allZero(bits, assertion_bits)) continue;
        passed.probs[programBits(bits, prog_bits)] += p;
    }
    outcome.program_dist_passed = std::move(passed);
    return outcome;
}

const char*
policyName(AssertionPolicy policy)
{
    switch (policy) {
      case AssertionPolicy::kAbort:   return "abort";
      case AssertionPolicy::kDiscard: return "discard";
      case AssertionPolicy::kRetry:   return "retry";
      case AssertionPolicy::kRepair:  return "repair";
    }
    return "unknown";
}

PolicyOutcome
runAssertedPolicy(const AssertedProgram& program, const SimOptions& options,
                  const PolicyOptions& popts)
{
    bool repair_supported = true;
    for (const AssertedProgram::Slot& slot : program.slots()) {
        if (slot.design != AssertionDesign::kSwap) {
            repair_supported = false;
            QA_REQUIRE_CODE(
                popts.policy != AssertionPolicy::kRepair,
                ErrorCode::kPolicyUnsupported,
                std::string("repair policy requires SWAP-based slots "
                            "(which restore the asserted state); found ") +
                    designName(slot.design));
        }
    }

    std::vector<std::vector<int>> slot_clbits;
    for (const AssertedProgram::Slot& slot : program.slots()) {
        slot_clbits.push_back(slot.clbits);
    }
    return runVariantsPolicy({program.circuit()}, slot_clbits,
                             program.programClbits(), repair_supported,
                             options, popts);
}

PolicyOutcome
runVariantsPolicy(const std::vector<QuantumCircuit>& variants,
                  const std::vector<std::vector<int>>& slot_clbits,
                  const std::vector<int>& program_clbits,
                  bool repair_supported, const SimOptions& options,
                  const PolicyOptions& popts)
{
    QA_REQUIRE(!variants.empty(), "need at least one circuit variant");
    QA_REQUIRE(options.shots > 0, "need a positive shot count");
    QA_REQUIRE(popts.max_attempts >= 1, "max_attempts must be >= 1");
    QA_REQUIRE_CODE(popts.policy != AssertionPolicy::kRepair ||
                        repair_supported,
                    ErrorCode::kPolicyUnsupported,
                    "repair policy requires slots that restore the "
                    "asserted state on every variant");
    for (const QuantumCircuit& variant : variants) {
        QA_REQUIRE(variant.numQubits() == variants[0].numQubits() &&
                       variant.numClbits() == variants[0].numClbits(),
                   "circuit variants must share the register layout");
    }
    const size_t num_variants = variants.size();

    // Route variant 0 once; the remaining variants are prepared on the
    // same resolved backend (forced explicitly) so per-shot counts stay
    // in one determinism domain.
    std::vector<backend::RoutedRun> routed;
    routed.push_back(backend::prepareRun(variants[0], options));
    if (num_variants > 1) {
        SimOptions forced = options;
        forced.backend = requestFor(routed[0].choice.backend);
        for (size_t v = 1; v < num_variants; ++v) {
            routed.push_back(backend::prepareRun(variants[v], forced));
        }
    }

    PolicyOutcome out;
    out.backend = routed[0].choice;
    for (const backend::RoutedRun& run : routed) {
        out.mps_truncation_error = std::max(
            out.mps_truncation_error, run.prepared->truncationError());
    }
    out.policy = popts.policy;
    out.shots_requested = options.shots;
    out.slot_error_rate.assign(slot_clbits.size(), 0.0);

    std::vector<long> slot_errors(slot_clbits.size(), 0);
    long passed = 0;

    if (popts.policy == AssertionPolicy::kAbort) {
        // Fail-fast is inherently ordered: run shots serially in shot
        // order and stop at the first flagged one, so the abort point is
        // deterministic.
        const ShotDeadline deadline(options.deadline_ms);
        std::vector<std::unique_ptr<backend::ShotSampler>> samplers(
            num_variants);
        for (int s = 0; s < options.shots; ++s) {
            if (deadline.active() && (s & 63) == 0 && deadline.expired()) {
                out.truncated = true;
                break;
            }
            const size_t v = size_t(s) % num_variants;
            if (samplers[v] == nullptr) {
                samplers[v] = routed[v].prepared->makeSampler();
            }
            Rng rng = Rng::forStream(options.seed, uint64_t(s));
            const std::string bits = samplers[v]->runOne(rng);
            ++out.shots_completed;
            bool any = false;
            for (size_t i = 0; i < slot_clbits.size(); ++i) {
                if (!allZero(bits, slot_clbits[i])) {
                    ++slot_errors[i];
                    any = true;
                }
            }
            if (any) {
                out.aborted = true;
                out.abort_shot = s;
                break;
            }
            ++passed;
            ++out.raw.map[bits];
            ++out.shots_accepted;
        }
    } else {
        // Pooled policies: each shot (including its retry attempts) is a
        // self-contained body depending only on the shot index, so the
        // merged result is thread-count independent.
        const int attempts = popts.policy == AssertionPolicy::kRetry
                                 ? popts.max_attempts
                                 : 1;
        struct Local
        {
            Counts raw; ///< raw.shots counts this worker's accepted shots.
            std::vector<long> slot_errors;
            long passed = 0;
            long retries = 0;
            long exhausted = 0;
            long repaired = 0;
        };
        std::vector<Local> locals;
        const ShotLoopStatus status = runShotPool(
            options.shots, options.num_threads, options.deadline_ms,
            locals, [&]() {
                // One sampler per variant per worker, created on first
                // use (a worker that never draws a variant never pays
                // for its scratch).
                auto samplers = std::make_shared<std::vector<
                    std::unique_ptr<backend::ShotSampler>>>(num_variants);
                return [&, samplers](int shot, Local& local) {
                    if (local.slot_errors.empty()) {
                        local.slot_errors.assign(slot_clbits.size(), 0);
                    }
                    const size_t v = size_t(shot) % num_variants;
                    if ((*samplers)[v] == nullptr) {
                        (*samplers)[v] = routed[v].prepared->makeSampler();
                    }
                    backend::ShotSampler& sampler = *(*samplers)[v];
                    std::string bits;
                    bool any = false;
                    for (int a = 0; a < attempts; ++a) {
                        Rng rng = Rng::forStream(
                            options.seed,
                            uint64_t(shot) * uint64_t(attempts) +
                                uint64_t(a));
                        bits = sampler.runOne(rng);
                        any = false;
                        for (size_t i = 0; i < slot_clbits.size(); ++i) {
                            const bool flagged =
                                !allZero(bits, slot_clbits[i]);
                            if (a == 0 && flagged) ++local.slot_errors[i];
                            any |= flagged;
                        }
                        if (a == 0 && !any) ++local.passed;
                        if (!any) break;
                        if (a + 1 < attempts) ++local.retries;
                    }
                    if (popts.policy == AssertionPolicy::kRepair) {
                        // Repair-capable slots re-prepared the asserted
                        // state, so the program output is usable either
                        // way.
                        ++local.raw.map[bits];
                        ++local.raw.shots;
                        if (any) ++local.repaired;
                    } else if (!any) {
                        ++local.raw.map[bits];
                        ++local.raw.shots;
                    } else if (popts.policy == AssertionPolicy::kRetry) {
                        ++local.exhausted;
                    }
                };
            });
        out.shots_completed = status.completed;
        out.truncated = status.truncated;
        for (const Local& local : locals) {
            mergeCounts(out.raw, local.raw);
            for (size_t i = 0; i < local.slot_errors.size(); ++i) {
                slot_errors[i] += local.slot_errors[i];
            }
            passed += local.passed;
            out.retries += int(local.retries);
            out.exhausted += int(local.exhausted);
            out.repaired += int(local.repaired);
        }
        out.shots_accepted = out.raw.shots;
    }

    out.raw.shots = out.shots_accepted;
    if (out.shots_completed > 0) {
        for (size_t i = 0; i < slot_clbits.size(); ++i) {
            out.slot_error_rate[i] =
                double(slot_errors[i]) / double(out.shots_completed);
        }
        out.pass_rate = double(passed) / double(out.shots_completed);
    }

    out.raw.truncated = out.truncated;
    out.program_counts = marginalCounts(out.raw, program_clbits);
    return out;
}

} // namespace qa
