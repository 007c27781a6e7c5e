/**
 * @file
 * Shared helpers for the qassert test suite.
 */
#ifndef QA_TESTS_TEST_UTIL_HPP
#define QA_TESTS_TEST_UTIL_HPP

#include <string>

#include <gtest/gtest.h>

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

} // namespace test
} // namespace qa

#endif // QA_TESTS_TEST_UTIL_HPP
