/**
 * @file
 * Correctness gate: every sampled result is checked against an exact
 * reference with statistical bounds, never against pinned digests, so
 * a change to the RNG stream structure keeps passing while a wrong
 * distribution fails.
 *
 * Rates use Bernstein's inequality at a false-alarm probability of
 * 1e-12 per check (a rigorous bound, unlike a normal approximation,
 * which matters for the thousands of checks one run makes);
 * histograms use the repo's Pearson chiSquareTest over cells with at
 * least 20 expected shots (the rest pooled) at p < 1e-12, plus a
 * Bernstein check of every bit's marginal. Where the pooled cell holds
 * most of the mass (flat wide distributions such as a random circuit's
 * Porter-Thomas output, where no outcome reaches 20 expected shots) the
 * chi-square test has little or no power and the marginals sit near
 * 1/2, so a linear cross-entropy check is added: the mean reference
 * probability of the sampled outcomes must match its exact expectation
 * sum p^2 within 8 standard deviations. That is a normal approximation;
 * for a Porter-Thomas sample of 256 shots the exact false-alarm
 * probability is 2.4e-13, while a sampler uncorrelated with the
 * reference (a broken kernel or gate convention) misses by 11 sigma.
 */
#include <algorithm>
#include <cmath>
#include <sstream>

#include "baselines/chi_square.hpp"
#include "bench.hpp"

namespace layerbench
{

using namespace qa;

namespace
{

constexpr double kLogTwoOverDelta = 28.324; // ln(2 / 1e-12)
constexpr double kChiSquareAlpha = 1e-12;
constexpr double kMinCellShots = 20.0;
constexpr double kXebSigmas = 8.0;

bool
allZero(const std::string& bits, const std::vector<int>& clbits)
{
    for (int c : clbits) {
        if (bits[size_t(c)] != '0') return false;
    }
    return true;
}

/** k successes in n trials consistent with probability p? */
bool
binomialOk(long k, long n, double p)
{
    const double mean = double(n) * p;
    if (mean < 1e-9) return k == 0;
    if (double(n) * (1.0 - p) < 1e-9) return k == n;
    const double var = mean * (1.0 - p);
    const double third = kLogTwoOverDelta / 3.0;
    const double t =
        third + std::sqrt(third * third + 2.0 * kLogTwoOverDelta * var);
    return std::abs(double(k) - mean) <= t;
}

std::string
fmt(double v)
{
    std::ostringstream oss;
    oss.precision(6);
    oss << v;
    return oss.str();
}

/** Sampled histogram `obs` against the normalized distribution `exp`. */
bool
histogramOk(const Counts& obs, const Distribution& exp,
            const std::string& what, std::string* why)
{
    const long total = obs.shots;
    if (total == 0) return true;
    for (const auto& [bits, n] : obs.map) {
        if (exp.probs.find(bits) == exp.probs.end()) {
            *why = what + ": outcome " + bits + " observed " +
                   std::to_string(n) + "x but impossible";
            return false;
        }
    }

    // Pearson test over well-populated cells, the rest pooled.
    std::vector<long> observed;
    std::vector<double> expected;
    long pooled_obs = total;
    double pooled_p = 0.0;
    for (const auto& [bits, p] : exp.probs) {
        if (p * double(total) < kMinCellShots) {
            pooled_p += p;
            continue;
        }
        const auto it = obs.map.find(bits);
        const long n = it == obs.map.end() ? 0 : it->second;
        observed.push_back(n);
        expected.push_back(p);
        pooled_obs -= n;
    }
    observed.push_back(pooled_obs);
    expected.push_back(pooled_p);
    if (observed.size() >= 2) {
        const ChiSquareResult chi = chiSquareTest(observed, expected);
        if (chi.p_value < kChiSquareAlpha) {
            *why = what + ": chi-square p=" + fmt(chi.p_value) + " (stat " +
                   fmt(chi.statistic) + ", dof " + std::to_string(chi.dof) +
                   ")";
            return false;
        }
    }

    if (pooled_p > 0.5) {
        double expect = 0.0, third = 0.0;
        for (const auto& [bits, p] : exp.probs) {
            expect += p * p;
            third += p * p * p;
        }
        double sum = 0.0;
        for (const auto& [bits, n] : obs.map) {
            sum += double(n) * exp.probs.at(bits);
        }
        const double mean = sum / double(total);
        const double sigma =
            std::sqrt(std::max(0.0, third - expect * expect) / double(total));
        if (std::abs(mean - expect) > kXebSigmas * sigma + 1e-9 * expect) {
            *why = what + ": cross-entropy " + fmt(mean) + ", exact " +
                   fmt(expect) + " +- " + fmt(sigma);
            return false;
        }
    }

    // Every bit's marginal.
    const size_t width =
        exp.probs.empty() ? 0 : exp.probs.begin()->first.size();
    for (size_t b = 0; b < width; ++b) {
        double p1 = 0.0;
        for (const auto& [bits, p] : exp.probs) {
            if (bits[b] == '1') p1 += p;
        }
        long k1 = 0;
        for (const auto& [bits, n] : obs.map) {
            if (bits[b] == '1') k1 += n;
        }
        if (!binomialOk(k1, total, std::min(1.0, p1))) {
            *why = what + ": bit " + std::to_string(b) + " reads 1 in " +
                   std::to_string(k1) + "/" + std::to_string(total) +
                   " shots, exact p=" + fmt(p1);
            return false;
        }
    }
    return true;
}

/** Post-select `raw` on every slot passing and keep `keep` bits. */
Distribution
passedMarginal(const Distribution& raw,
               const std::vector<std::vector<int>>& slots,
               const std::vector<int>& keep, double pass_prob)
{
    Distribution out;
    for (const auto& [bits, p] : raw.probs) {
        bool pass = true;
        for (const std::vector<int>& slot : slots) {
            pass = pass && allZero(bits, slot);
        }
        if (!pass) continue;
        std::string reduced;
        for (int c : keep) reduced.push_back(bits[size_t(c)]);
        out.probs[reduced] += p / pass_prob;
    }
    return out;
}

long
shotsOf(double rate, long shots)
{
    return std::lround(rate * double(shots));
}

} // namespace

bool
checkResult(const CatalogJob& job, const Reference& ref,
            const serve::JobResult& result, std::string* why)
{
    const std::string tag = job.name + " (" + job.id + ")";
    if (result.status != serve::JobStatus::kOk) {
        *why = tag + ": status " + serve::jobStatusName(result.status) +
               " " + errorCodeName(result.error_code) + ": " +
               result.error_message;
        return false;
    }
    if (result.truncated || result.counts.shots <= 0) {
        *why = tag + ": truncated or empty result";
        return false;
    }
    if (ref.kind == Reference::Kind::kWide) {
        // No reference fits; prepare must have been exact, and replay
        // identity is checked by the caller.
        if (result.mps_truncation_error != 0.0) {
            *why = tag + ": truncation_error " +
                   fmt(result.mps_truncation_error) + " (want 0)";
            return false;
        }
        if (result.counts.shots != job.shots) {
            *why = tag + ": " + std::to_string(result.counts.shots) +
                   " shots (want " + std::to_string(job.shots) + ")";
            return false;
        }
        return true;
    }

    const long shots = job.shots;
    if (ref.kind == Reference::Kind::kAutoAssert) {
        // Generated invariants hold on the raw program: every shot passes
        // and the accepted histogram is the raw program's distribution.
        for (double rate : result.slot_error_rate) {
            if (rate != 0.0) {
                *why = tag + ": generated slot flagged at rate " + fmt(rate);
                return false;
            }
        }
        if (result.pass_rate != 1.0 || result.program_counts.shots != shots) {
            *why = tag + ": pass_rate " + fmt(result.pass_rate) +
                   " on a correct program";
            return false;
        }
        return histogramOk(result.program_counts, ref.raw,
                           tag + " program_counts", why);
    }

    if (result.counts.shots != shots ||
        result.slot_error_rate.size() != ref.slots.size()) {
        *why = tag + ": result shape does not match the request";
        return false;
    }
    for (size_t i = 0; i < ref.slots.size(); ++i) {
        const double p = ref.raw.mass([&](const std::string& bits) {
            return !allZero(bits, ref.slots[i]);
        });
        const long k = shotsOf(result.slot_error_rate[i], shots);
        if (!binomialOk(k, shots, p)) {
            *why = tag + ": slot " + std::to_string(i) + " error rate " +
                   fmt(result.slot_error_rate[i]) + ", exact " + fmt(p);
            return false;
        }
    }
    const double pass_prob = ref.raw.mass([&](const std::string& bits) {
        for (const std::vector<int>& slot : ref.slots) {
            if (!allZero(bits, slot)) return false;
        }
        return true;
    });
    if (!binomialOk(shotsOf(result.pass_rate, shots), shots, pass_prob)) {
        *why = tag + ": pass_rate " + fmt(result.pass_rate) + ", exact " +
               fmt(pass_prob);
        return false;
    }
    if (!histogramOk(result.counts, ref.raw, tag + " counts", why)) {
        return false;
    }
    if (pass_prob < 1e-9) return true;

    const int width = int(ref.raw.probs.begin()->first.size());
    std::vector<bool> is_slot(size_t(width), false);
    for (const std::vector<int>& slot : ref.slots) {
        for (int c : slot) is_slot[size_t(c)] = true;
    }
    std::vector<int> program_bits;
    for (int c = 0; c < width; ++c) {
        if (!is_slot[size_t(c)]) program_bits.push_back(c);
    }
    return histogramOk(result.program_counts,
                       passedMarginal(ref.raw, ref.slots, program_bits,
                                      pass_prob),
                       tag + " program_counts", why);
}

} // namespace layerbench
