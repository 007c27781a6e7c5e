/**
 * @file
 * Gate-fusion and kernel-dispatch tests: fused evolution matches the
 * unfused reference amplitude-for-amplitude, fusion refuses to cross
 * measurement/reset/barrier boundaries, per-gate Kraus noise keeps the
 * noisy stream unfused (bit-identical counts with fusion on or off),
 * sampled counts stay bit-deterministic across thread counts with
 * fusion enabled, and the kernel classifier recognizes the structures
 * the dispatcher specializes on.
 */
#include <cmath>
#include <complex>

#include <gtest/gtest.h>

#include "backend/backend.hpp"
#include "backend/shot_program.hpp"
#include "circuit/stdgates.hpp"
#include "sim/fusion.hpp"
#include "sim/kernels.hpp"
#include "sim/noise.hpp"
#include "sim/statevector.hpp"

namespace qa
{
namespace
{

/** The statevector backend's shot run, bypassing the router. */
Counts
runStatevector(const QuantumCircuit& qc, const SimOptions& options)
{
    return backend::backendFor(BackendKind::kStatevector)
        .runShots(qc, options);
}

/** Layered pseudo-random 1q+2q circuit (no measurements). */
QuantumCircuit
randomLayers(int n, int layers, uint64_t seed)
{
    QuantumCircuit qc(n);
    Rng rng(seed);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < n; ++q) {
            qc.u3(q, rng.uniform(0, 3), rng.uniform(0, 3),
                  rng.uniform(0, 3));
        }
        for (int q = 0; q + 1 < n; q += 2) qc.cx(q, q + 1);
        for (int q = 1; q + 1 < n; q += 2) qc.cz(q, q + 1);
        for (int q = 0; q < n; ++q) {
            if (rng.uniform() < 0.3) qc.t(q);
        }
    }
    return qc;
}

void
expectAmplitudesEqual(const Statevector& a, const Statevector& b,
                      double tol)
{
    ASSERT_EQ(a.amplitudes().dim(), b.amplitudes().dim());
    for (uint64_t i = 0; i < a.amplitudes().dim(); ++i) {
        EXPECT_NEAR(std::abs(a.amplitudes()[i] - b.amplitudes()[i]),
                    0.0, tol)
            << "amplitude " << i;
    }
}

TEST(FusionTest, FusedMatchesUnfusedAmplitudes)
{
    for (int n : {2, 3, 5, 7}) {
        for (int max_qubits : {2, 3}) {
            const QuantumCircuit qc = randomLayers(n, 4, 17 + n);
            const Statevector reference =
                finalState(qc, FusionOptions{false, 2}, false);
            const Statevector fused = finalState(
                qc, FusionOptions{true, max_qubits}, true);
            expectAmplitudesEqual(reference, fused, 1e-12);
        }
    }
}

TEST(FusionTest, ScalarAndSimdKernelsAgree)
{
    const QuantumCircuit qc = randomLayers(6, 5, 23);
    const Statevector scalar =
        finalState(qc, FusionOptions{true, 2}, false);
    const Statevector simd =
        finalState(qc, FusionOptions{true, 2}, true);
    expectAmplitudesEqual(scalar, simd, 1e-12);
}

TEST(FusionTest, PassReducesGateCount)
{
    const QuantumCircuit qc = randomLayers(6, 4, 5);
    const FusedProgram prog = fuseCircuit(qc, FusionOptions{true, 2});
    EXPECT_EQ(prog.stats.gates_in, qc.size());
    EXPECT_LT(prog.stats.gates_out, prog.stats.gates_in);
    EXPECT_GE(prog.stats.fused_groups, 1u);
    EXPECT_GE(prog.stats.max_group, 2u);
    EXPECT_LT(prog.stats.ratio(), 1.0);

    size_t kernel_total = 0;
    for (const auto& [name, count] : prog.stats.kernel_counts) {
        kernel_total += count;
    }
    EXPECT_EQ(kernel_total, prog.stats.gates_out);
}

TEST(FusionTest, BarrierIsAFusionBoundary)
{
    QuantumCircuit qc(1);
    qc.t(0);
    qc.barrier();
    qc.t(0);
    const FusedProgram prog = fuseCircuit(qc, FusionOptions{true, 2});
    EXPECT_EQ(prog.stats.gates_out, 2u);
    EXPECT_EQ(prog.stats.fused_groups, 0u);
    ASSERT_EQ(prog.instructions.size(), 3u);
    EXPECT_EQ(prog.instructions[1].type, OpType::kBarrier);

    // Without the barrier the same pair fuses into one kernel.
    QuantumCircuit open(1);
    open.t(0);
    open.t(0);
    EXPECT_EQ(fuseCircuit(open, FusionOptions{true, 2})
                  .stats.gates_out,
              1u);
}

TEST(FusionTest, MeasureAndResetAreFusionBoundaries)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.measure(0, 0);
    qc.h(0);
    qc.reset(1);
    qc.h(0);
    const auto& instrs = qc.instructions();
    const FusedProgram prog =
        fuseInstructions(instrs, 0, instrs.size(),
                         FusionOptions{true, 2});
    // Every h(0) is pinned by a boundary: nothing fuses.
    EXPECT_EQ(prog.stats.gates_out, 3u);
    EXPECT_EQ(prog.stats.fused_groups, 0u);
    ASSERT_EQ(prog.instructions.size(), instrs.size());
    for (size_t i = 0; i < instrs.size(); ++i) {
        EXPECT_EQ(prog.instructions[i].type, instrs[i].type);
    }
}

TEST(FusionTest, GatesWiderThanLimitPassThrough)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.ccx(0, 1, 2);
    qc.h(0);
    const FusedProgram prog = fuseCircuit(qc, FusionOptions{true, 2});
    EXPECT_EQ(prog.stats.gates_out, 3u);
    bool found = false;
    for (const Instruction& instr : prog.instructions) {
        if (instr.name == "ccx") found = true;
    }
    EXPECT_TRUE(found);

    // Stretch mode folds the whole run into one 8x8 kernel.
    const FusedProgram wide = fuseCircuit(qc, FusionOptions{true, 3});
    EXPECT_EQ(wide.stats.gates_out, 1u);
    const Statevector reference =
        finalState(qc, FusionOptions{false, 2}, false);
    const Statevector fused =
        finalState(qc, FusionOptions{true, 3}, true);
    expectAmplitudesEqual(reference, fused, 1e-12);
}

TEST(FusionTest, DisjointOneQubitRunsShareAKernel)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.h(1);
    const FusedProgram prog = fuseCircuit(qc, FusionOptions{true, 2});
    EXPECT_EQ(prog.stats.gates_out, 1u);
    ASSERT_EQ(prog.instructions.size(), 1u);
    EXPECT_EQ(prog.instructions[0].qubits.size(), 2u);
    const Statevector reference =
        finalState(qc, FusionOptions{false, 2}, false);
    const Statevector fused = finalState(qc, FusionOptions{true, 2});
    expectAmplitudesEqual(reference, fused, 1e-12);
}

TEST(FusionTest, KrausNoiseKeepsTheNoisyStreamUnfused)
{
    QuantumCircuit qc(4, 4);
    std::vector<int> ident{0, 1, 2, 3};
    qc.compose(randomLayers(4, 3, 31), ident);
    qc.measureAll();

    const NoiseModel noise = NoiseModel::depolarizing(1e-2, 2e-2);
    SimOptions fused;
    fused.shots = 512;
    fused.seed = 99;
    fused.num_threads = 1;
    fused.noise = &noise;
    SimOptions unfused = fused;
    unfused.fusion = false;

    // With per-gate Kraus channels the engine must replay the raw
    // stream either way, so the trajectories consume identical RNG
    // draws and the counts match bit-for-bit.
    const Counts a = runStatevector(qc, fused);
    const Counts b = runStatevector(qc, unfused);
    EXPECT_EQ(a.map, b.map);

    // Every gate is noisy, so the whole stream is replayed suffix: had
    // the replay fused, its gate arities (and so the channel lists the
    // noise draws come from) would differ and the counts above with
    // them.
    EXPECT_EQ(backend::analyzeShotPlan(qc, &noise).split, 0u);
}

TEST(FusionTest, CountsAreBitIdenticalAcrossThreadCounts)
{
    // Mid-circuit measurement defeats the terminal-sampling fast path,
    // so every shot replays the (fused) suffix.
    QuantumCircuit qc(6, 6);
    std::vector<int> ident{0, 1, 2, 3, 4, 5};
    qc.compose(randomLayers(6, 2, 7), ident);
    qc.measure(0, 0);
    qc.compose(randomLayers(6, 1, 8), ident);
    qc.measureAll();

    SimOptions options;
    options.shots = 1024;
    options.seed = 4242;

    options.num_threads = 1;
    const Counts one = runStatevector(qc, options);
    for (int threads : {2, 8}) {
        options.num_threads = threads;
        const Counts many = runStatevector(qc, options);
        EXPECT_EQ(one.map, many.map) << threads << " threads";
        EXPECT_EQ(one.shots, many.shots);
    }

    // The unfused reference samples the same outcomes for this seed.
    options.num_threads = 1;
    options.fusion = false;
    EXPECT_EQ(one.map, runStatevector(qc, options).map);
}

TEST(FusionTest, DensityBackendFusedMatchesUnfused)
{
    QuantumCircuit qc(4, 4);
    std::vector<int> ident{0, 1, 2, 3};
    qc.compose(randomLayers(4, 3, 13), ident);
    qc.measureAll();

    SimOptions options;
    options.shots = 512;
    options.seed = 7;
    options.num_threads = 1;
    options.backend = BackendRequest::kDensityMatrix;
    const Counts fused =
        backend::backendFor(BackendKind::kDensityMatrix)
            .runShots(qc, options);
    options.fusion = false;
    const Counts unfused =
        backend::backendFor(BackendKind::kDensityMatrix)
            .runShots(qc, options);
    EXPECT_EQ(fused.map, unfused.map);
}

TEST(KernelClassTest, RecognizesGateStructure)
{
    QuantumCircuit qc(2);
    qc.z(0);
    qc.x(0);
    qc.h(0);
    qc.cz(0, 1);
    qc.cx(0, 1);
    qc.swap(0, 1);
    const auto& instrs = qc.instructions();
    EXPECT_EQ(classifyKernel(instrs[0].matrix),
              KernelClass::kDiagonal1q);
    EXPECT_EQ(classifyKernel(instrs[1].matrix),
              KernelClass::kPermutation1q);
    EXPECT_EQ(classifyKernel(instrs[2].matrix),
              KernelClass::kGeneral1q);
    EXPECT_EQ(classifyKernel(instrs[3].matrix),
              KernelClass::kDiagonal2q);
    EXPECT_EQ(classifyKernel(instrs[4].matrix),
              KernelClass::kControlled1q);
    EXPECT_EQ(classifyKernel(instrs[5].matrix),
              KernelClass::kPermutation2q);

    QuantumCircuit three(3);
    three.ccx(0, 1, 2);
    EXPECT_EQ(classifyKernel(three.instructions()[0].matrix),
              KernelClass::kGeneral3q);
}

TEST(KernelClassTest, ControlOnEitherLocalQubitIsRecognized)
{
    // cx(1, 0): the control is the local LSB after the MSB-first
    // operand ordering — the dispatcher must still find the I (+) U
    // block structure.
    QuantumCircuit qc(2);
    qc.cx(1, 0);
    EXPECT_EQ(classifyKernel(qc.instructions()[0].matrix),
              KernelClass::kControlled1q);

    const Statevector reference =
        finalState(qc, FusionOptions{false, 2}, false);
    const Statevector fused = finalState(qc, FusionOptions{true, 2});
    expectAmplitudesEqual(reference, fused, 1e-12);
}

TEST(KernelDispatchTest, SimdAvailabilityIsConsistent)
{
    // simdAvailable implies simdCompiledIn; both are stable across
    // calls (cached cpuid).
    if (simdAvailable()) {
        EXPECT_TRUE(simdCompiledIn());
    }
    EXPECT_EQ(simdAvailable(), simdAvailable());
}

TEST(KernelDispatchTest, ExpandToUnionEmbedsIdentityOnRestQubits)
{
    // Expanding h on qubit 1 into the {0, 1} union and applying the
    // 4x4 must equal applying h directly.
    QuantumCircuit direct(2);
    direct.h(1);
    direct.cx(0, 1);

    const Instruction& h = direct.instructions()[0];
    const CMatrix wide = expandToUnion(h.matrix, h.qubits, {0, 1});
    QuantumCircuit embedded(2);
    embedded.unitary(wide, {0, 1});
    embedded.cx(0, 1);

    expectAmplitudesEqual(
        finalState(direct, FusionOptions{false, 2}, false),
        finalState(embedded, FusionOptions{false, 2}, false), 1e-12);
}

} // namespace
} // namespace qa
