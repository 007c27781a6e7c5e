#include "backend/shot_program.hpp"

namespace qa
{
namespace backend
{

ShotPlan
analyzeShotPlan(const QuantumCircuit& circuit, const NoiseModel* noise)
{
    const auto& instrs = circuit.instructions();
    ShotPlan plan;
    plan.split = instrs.size();
    for (size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& instr = instrs[i];
        const bool noisy =
            instr.type == OpType::kGate && noise != nullptr &&
            !(instr.arity() == 1 ? noise->noise_1q : noise->noise_2q)
                 .empty();
        if (noisy || instr.type == OpType::kMeasure ||
            instr.type == OpType::kReset) {
            plan.split = i;
            break;
        }
    }

    plan.tail = instrs.size();
    while (plan.tail > plan.split &&
           (instrs[plan.tail - 1].type == OpType::kMeasure ||
            instrs[plan.tail - 1].type == OpType::kBarrier)) {
        --plan.tail;
    }
    for (size_t i = plan.tail; i < instrs.size(); ++i) {
        if (instrs[i].type == OpType::kMeasure) {
            plan.terminal_measures.emplace_back(instrs[i].qubits[0],
                                                instrs[i].cbit);
        }
    }
    return plan;
}

const NoiseModel*
activeNoise(const NoiseModel* noise)
{
    if (noise == nullptr || !noise->enabled()) return nullptr;
    noise->validate();
    return noise;
}

SampleTable::SampleTable(std::vector<double> weights)
    : cumulative_(std::move(weights))
{
    double acc = 0.0;
    for (double& w : cumulative_) {
        acc += w;
        w = acc;
    }
    QA_REQUIRE(acc > 1e-14, "sample table over a zero-mass state");
}

uint64_t
SampleTable::sample(Rng& rng) const
{
    const double draw = rng.uniform() * cumulative_.back();
    const auto it =
        std::upper_bound(cumulative_.begin(), cumulative_.end(), draw);
    if (it == cumulative_.end()) return uint64_t(cumulative_.size()) - 1;
    return uint64_t(it - cumulative_.begin());
}

} // namespace backend
} // namespace qa
