/**
 * @file
 * The exact measure/reset branch walk behind exactDistribution
 * (statevector) and exactDistributionDM (density matrix). Every
 * measurement or reset forks the state into its two outcomes weighted by
 * their probabilities; every finished branch adds its weight to its
 * classical record.
 */
#ifndef QA_SIM_BRANCH_WALK_HPP
#define QA_SIM_BRANCH_WALK_HPP

#include <algorithm>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "sim/noise.hpp"
#include "sim/result.hpp"

namespace qa
{

/** A state that can apply a noise model's gate channels exactly. */
template <class State>
concept ExactGateNoise = requires(State& state, const Instruction& instr,
                                  const NoiseModel& noise) {
    state.applyGateNoise(instr, noise);
};

/**
 * Exact outcome distribution of `circuit` evolved from `initial`. With a
 * `noise` model (null or enabled), gate channels follow every gate and
 * readout error is folded into the classical record: the collapse is on
 * the true outcome, only the recorded bit may flip. Only states with
 * ExactGateNoise accept a model.
 */
template <class State>
Distribution
exactBranchWalk(const QuantumCircuit& circuit, State initial,
                const NoiseModel* noise)
{
    QA_ASSERT(noise == nullptr || ExactGateNoise<State>,
              "this state has no exact noise channels");
    struct Branch
    {
        State state;
        std::string clbits;
        double prob;
        size_t pc;
    };

    Distribution dist;
    std::vector<Branch> stack;
    stack.push_back(Branch{std::move(initial),
                           std::string(size_t(std::max(
                               circuit.numClbits(), 0)), '0'),
                           1.0, 0});

    const auto& instrs = circuit.instructions();
    while (!stack.empty()) {
        Branch branch = std::move(stack.back());
        stack.pop_back();

        bool alive = true;
        while (branch.pc < instrs.size() && alive) {
            const Instruction& instr = instrs[branch.pc];
            ++branch.pc;
            switch (instr.type) {
              case OpType::kGate:
                branch.state.applyGate(instr);
                if constexpr (ExactGateNoise<State>) {
                    if (noise != nullptr) {
                        branch.state.applyGateNoise(instr, *noise);
                    }
                }
                break;
              case OpType::kBarrier:
                break;
              case OpType::kMeasure:
              case OpType::kReset: {
                const int q = instr.qubits[0];
                const double p1 = branch.state.probabilityOne(q);
                for (int outcome : {0, 1}) {
                    const double p = outcome ? p1 : 1.0 - p1;
                    if (p < 1e-12) continue;
                    Branch next = branch;
                    next.prob *= p;
                    next.state.collapse(q, outcome);
                    if (instr.type == OpType::kReset) {
                        if (outcome == 1) {
                            next.state.applyMatrix(
                                CMatrix{{0, 1}, {1, 0}}, {q});
                        }
                        stack.push_back(std::move(next));
                        continue;
                    }
                    double flip = 0.0;
                    if (noise != nullptr) {
                        flip = outcome ? noise->readout_p10
                                       : noise->readout_p01;
                    }
                    if (flip > 0.0) {
                        Branch flipped = next;
                        flipped.prob *= flip;
                        flipped.clbits[instr.cbit] =
                            outcome ? '0' : '1';
                        stack.push_back(std::move(flipped));
                        next.prob *= 1.0 - flip;
                    }
                    next.clbits[instr.cbit] = outcome ? '1' : '0';
                    stack.push_back(std::move(next));
                }
                alive = false;
                break;
              }
            }
        }
        if (alive) {
            dist.probs[branch.clbits] += branch.prob;
        }
    }
    return dist;
}

} // namespace qa

#endif // QA_SIM_BRANCH_WALK_HPP
