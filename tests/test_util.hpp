/**
 * @file
 * Shared helpers for the qassert test suite.
 */
#ifndef QA_TESTS_TEST_UTIL_HPP
#define QA_TESTS_TEST_UTIL_HPP

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/chi_square.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "sim/engine.hpp"
#include "sim/statevector.hpp"

namespace qa
{
namespace test
{

/** EXPECT that two complex numbers agree within eps. */
inline void
expectComplexNear(Complex a, Complex b, double eps = 1e-9)
{
    EXPECT_NEAR(a.real(), b.real(), eps);
    EXPECT_NEAR(a.imag(), b.imag(), eps);
}

/** EXPECT element-wise vector agreement. */
inline void
expectVectorNear(const CVector& a, const CVector& b, double eps = 1e-9)
{
    ASSERT_EQ(a.dim(), b.dim());
    for (size_t i = 0; i < a.dim(); ++i) {
        EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, eps)
            << "index " << i << ": " << a.toString() << " vs "
            << b.toString();
    }
}

/** EXPECT matrix agreement. */
inline void
expectMatrixNear(const CMatrix& a, const CMatrix& b, double eps = 1e-9)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (size_t r = 0; r < a.rows(); ++r) {
        for (size_t c = 0; c < a.cols(); ++c) {
            EXPECT_NEAR(std::abs(a(r, c) - b(r, c)), 0.0, eps)
                << "entry (" << r << ", " << c << ")";
        }
    }
}

/**
 * Full-replay reference shot loop: every shot replays the whole circuit,
 * unfused, on a fresh statevector drawing from Rng::forStream(seed,
 * shot) — trajectory noise after each gate, readout error after each
 * measurement, in instruction order. A prefix-cached plan must consume
 * exactly this draw sequence, so its counts must match bit for bit.
 */
inline Counts
fullReplayCounts(const QuantumCircuit& qc, const SimOptions& options)
{
    const NoiseModel* noise =
        options.noise != nullptr && options.noise->enabled() ? options.noise
                                                             : nullptr;
    Counts counts;
    for (int shot = 0; shot < options.shots; ++shot) {
        Rng rng = Rng::forStream(options.seed, uint64_t(shot));
        Statevector sv(qc.numQubits());
        std::string clbits(size_t(qc.numClbits()), '0');
        for (const Instruction& instr : qc.instructions()) {
            if (instr.type == OpType::kGate) {
                sv.applyGate(instr);
                if (noise == nullptr) continue;
                for (int q : instr.qubits) {
                    for (const KrausChannel& channel :
                         instr.arity() == 1 ? noise->noise_1q
                                            : noise->noise_2q) {
                        sv.applyKrausTrajectory(channel, q, rng);
                    }
                }
            } else if (instr.type == OpType::kMeasure) {
                int outcome = sv.measure(instr.qubits[0], rng);
                if (noise != nullptr) {
                    outcome = applyReadoutError(outcome, *noise, rng);
                }
                clbits[size_t(instr.cbit)] = outcome ? '1' : '0';
            } else if (instr.type == OpType::kReset) {
                sv.reset(instr.qubits[0], rng);
            }
        }
        ++counts.map[clbits];
        ++counts.shots;
    }
    return counts;
}

/**
 * One-sample chi-square of observed counts against exact outcome
 * probabilities (p > 1e-4). Outcomes expected fewer than 5 times are
 * pooled into one tail cell, the usual condition for the chi-square
 * approximation: a workload with hundreds of rare outcomes otherwise
 * fails correct samplers on about one seed in five. An observed outcome
 * the exact distribution lacks is an impossible cell and rejects
 * strongly.
 */
inline void
expectMatchesExact(const Counts& observed,
                   const std::map<std::string, double>& probs)
{
    std::vector<long> obs;
    std::vector<double> expected;
    long tail_obs = 0;
    double tail_p = 0.0;
    for (const auto& [bits, p] : probs) {
        const auto o = observed.map.find(bits);
        const long n = o == observed.map.end() ? 0 : long(o->second);
        if (p * double(observed.shots) < 5.0) {
            tail_obs += n;
            tail_p += p;
            continue;
        }
        obs.push_back(n);
        expected.push_back(p);
    }
    if (tail_p > 0.0) {
        obs.push_back(tail_obs);
        expected.push_back(tail_p);
    }
    for (const auto& [bits, n] : observed.map) {
        if (probs.find(bits) == probs.end()) {
            obs.push_back(long(n));
            expected.push_back(0.0);
        }
    }
    const ChiSquareResult chi = chiSquareTest(obs, expected);
    EXPECT_GT(chi.p_value, 1e-4)
        << "distribution off exact: chi2=" << chi.statistic
        << " dof=" << chi.dof;
}

} // namespace test
} // namespace qa

#endif // QA_TESTS_TEST_UTIL_HPP
