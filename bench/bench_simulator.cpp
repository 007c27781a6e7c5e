/**
 * @file
 * Substrate benchmark: throughput of the simulation backends that every
 * reproduction number rests on -- statevector gate kernels, shot
 * sampling, exact branching distributions, density-matrix evolution,
 * and the stabilizer tableau.
 */
#include <cmath>

#include <benchmark/benchmark.h>

#include "algos/qft.hpp"
#include "linalg/states.hpp"
#include "sim/density.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"
#include "stab/tableau.hpp"

namespace
{

using namespace qa;

QuantumCircuit
layeredCircuit(int n, int layers)
{
    QuantumCircuit qc(n);
    Rng rng(1);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < n; ++q) {
            qc.u3(q, rng.uniform(0, 3), rng.uniform(0, 3),
                  rng.uniform(0, 3));
        }
        for (int q = 0; q + 1 < n; q += 2) qc.cx(q, q + 1);
        for (int q = 1; q + 1 < n; q += 2) qc.cx(q, q + 1);
    }
    return qc;
}

void
BM_StatevectorLayers(benchmark::State& state)
{
    const int n = int(state.range(0));
    const QuantumCircuit qc = layeredCircuit(n, 10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(finalState(qc).amplitudes().dim());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(qc.size()));
}
BENCHMARK(BM_StatevectorLayers)->DenseRange(4, 16, 4);

/**
 * Same workload with fusion and SIMD disabled: the pre-fusion kernel
 * path. The BM_StatevectorLayers ratio is the tentpole speedup.
 */
void
BM_StatevectorLayersUnfused(benchmark::State& state)
{
    const int n = int(state.range(0));
    const QuantumCircuit qc = layeredCircuit(n, 10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            finalState(qc, FusionOptions{false, 2}, false)
                .amplitudes()
                .dim());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(qc.size()));
}
BENCHMARK(BM_StatevectorLayersUnfused)->DenseRange(4, 16, 4);

/**
 * The PR 6 acceptance workload: a 16-qubit random 1q+2q layered
 * circuit at 4096 shots through the full shot engine (fused prefix +
 * terminal sampling). The Fused/Unfused pair brackets the fusion +
 * SIMD win on a realistic job.
 */
void
BM_ShotEngineRandom16(benchmark::State& state)
{
    QuantumCircuit qc(16, 16);
    std::vector<int> ident;
    for (int q = 0; q < 16; ++q) ident.push_back(q);
    qc.compose(layeredCircuit(16, 8), ident);
    qc.measureAll();
    SimOptions options;
    options.shots = 4096;
    options.seed = 11;
    options.fusion = state.range(0) != 0;
    options.simd = state.range(0) != 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runShots(qc, options).shots);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * options.shots);
}
BENCHMARK(BM_ShotEngineRandom16)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"fused"})
    ->Unit(benchmark::kMillisecond);

void
BM_ShotSampling(benchmark::State& state)
{
    QuantumCircuit qc = layeredCircuit(8, 5);
    QuantumCircuit measured(8, 8);
    std::vector<int> ident{0, 1, 2, 3, 4, 5, 6, 7};
    measured.compose(qc, ident);
    measured.measureAll();
    SimOptions options;
    options.shots = int(state.range(0));
    options.seed = 2;
    for (auto _ : state) {
        benchmark::DoNotOptimize(runShots(measured, options).shots);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * options.shots);
}
BENCHMARK(BM_ShotSampling)->Arg(128)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/** n-qubit QFT with every qubit measured: the terminal fast-path case. */
QuantumCircuit
measuredQft(int n)
{
    QuantumCircuit qc(n, n);
    std::vector<int> ident;
    for (int q = 0; q < n; ++q) ident.push_back(q);
    qc.compose(qa::algos::qft(n), ident);
    qc.measureAll();
    return qc;
}

/**
 * Shot engine, noiseless terminal measurement (12-qubit QFT, 4096
 * shots): the prefix is evolved once and the final distribution sampled
 * per shot. Thread count is the benchmark argument.
 */
void
BM_ShotEngineTerminal(benchmark::State& state)
{
    const QuantumCircuit qc = measuredQft(12);
    SimOptions options;
    options.shots = 4096;
    options.seed = 7;
    options.num_threads = int(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(runShots(qc, options).shots);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * options.shots);
}
BENCHMARK(BM_ShotEngineTerminal)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * Shot engine with a mid-circuit measurement: the deterministic prefix
 * (10 layers) is cached; only the short suffix replays per shot.
 */
void
BM_ShotEngineMidCircuit(benchmark::State& state)
{
    QuantumCircuit qc(10, 10);
    std::vector<int> ident{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    qc.compose(layeredCircuit(10, 10), ident);
    qc.measure(0, 0);
    qc.compose(layeredCircuit(10, 1), ident);
    qc.measureAll();
    SimOptions options;
    options.shots = 256;
    options.seed = 11;
    options.num_threads = int(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(runShots(qc, options).shots);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * options.shots);
}
BENCHMARK(BM_ShotEngineMidCircuit)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * Shot engine under trajectory noise: the split lands on the first
 * noisy gate, so per-shot replay dominates and the thread pool carries
 * the scaling.
 */
void
BM_ShotEngineNoisy(benchmark::State& state)
{
    const QuantumCircuit qc = measuredQft(8);
    const NoiseModel noise = NoiseModel::ibmqMelbourneLike();
    SimOptions options;
    options.shots = 256;
    options.seed = 13;
    options.noise = &noise;
    options.num_threads = int(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(runShots(qc, options).shots);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * options.shots);
}
BENCHMARK(BM_ShotEngineNoisy)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_ExactBranching(benchmark::State& state)
{
    // Mid-circuit measurements force branching: 4 measurements on an
    // 8-qubit circuit.
    QuantumCircuit qc(8, 4);
    std::vector<int> ident{0, 1, 2, 3, 4, 5, 6, 7};
    qc.compose(layeredCircuit(8, 3), ident);
    for (int m = 0; m < 4; ++m) qc.measure(m, m);
    qc.compose(layeredCircuit(8, 2), ident);
    for (auto _ : state) {
        benchmark::DoNotOptimize(exactDistribution(qc).probs.size());
    }
}
BENCHMARK(BM_ExactBranching)->Unit(benchmark::kMillisecond);

void
BM_DensityMatrixLayers(benchmark::State& state)
{
    const int n = int(state.range(0));
    const QuantumCircuit qc = layeredCircuit(n, 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(finalDensity(qc).rows());
    }
}
BENCHMARK(BM_DensityMatrixLayers)->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMillisecond);

void
BM_DensityMatrixWithNoise(benchmark::State& state)
{
    const NoiseModel noise = NoiseModel::ibmqMelbourneLike();
    const QuantumCircuit qc = layeredCircuit(int(state.range(0)), 4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(finalDensity(qc, &noise).rows());
    }
}
BENCHMARK(BM_DensityMatrixWithNoise)->Arg(4)->Arg(6)
    ->Unit(benchmark::kMillisecond);

void
BM_StabilizerTableau(benchmark::State& state)
{
    const int n = int(state.range(0));
    QuantumCircuit qc(n);
    Rng rng(3);
    for (int g = 0; g < 20 * n; ++g) {
        const int a = int(rng.index(n));
        int b = int(rng.index(n));
        if (b == a) b = (b + 1) % n;
        switch (rng.index(4)) {
          case 0: qc.h(a); break;
          case 1: qc.s(a); break;
          case 2: qc.cx(a, b); break;
          case 3: qc.cz(a, b); break;
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(runClifford(qc).numQubits());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(qc.size()));
}
BENCHMARK(BM_StabilizerTableau)->Arg(16)->Arg(64)->Arg(256);

void
BM_QftFullStack(benchmark::State& state)
{
    // End-to-end: build QFT, lower it, simulate it.
    const int n = int(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            finalState(qa::algos::qft(n)).amplitudes().dim());
    }
}
BENCHMARK(BM_QftFullStack)->DenseRange(4, 12, 4);

} // namespace

BENCHMARK_MAIN();
