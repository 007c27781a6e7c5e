/**
 * @file
 * The one shot plan every backend executes (DESIGN.md Sec. 7).
 *
 * A shot run splits the circuit at its first stochastic instruction: a
 * measurement, a reset, or a gate whose noise the backend samples per
 * trajectory. The instructions before the split are shot-invariant, so
 * ShotProgram evolves that prefix once. Each shot copies the prefix
 * into a per-worker scratch state and replays the stochastic suffix.
 * The trailing run of measurements (the terminal tail) is served by one
 * sample per shot when the backend can sample the state the tail sees;
 * otherwise it is replayed with the suffix. Readout error is applied to
 * every recorded bit with the job's NoiseModel.
 *
 * A backend contributes only a state adapter:
 *
 *   using State = ...;  // copyable simulation state
 *   using Gate = ...;   // one resolved gate
 *   std::vector<Instruction> lower(instrs, begin, end, replayed) const;
 *       // rewrite instrs[begin, end) into the backend's gate stream
 *       // (fusion, basis lowering); replayed is false for the prefix
 *   Gate resolve(Instruction gate) const;
 *   void apply(State&, const Gate&) const;
 *
 * and, where the backend supports them (detected at compile time):
 *
 *   int measure(State&, int qubit, Rng&) const;  // replay a suffix
 *   void reset(State&, int qubit, Rng&) const;
 *   void applyNoise(State&, const Gate&, Rng&) const;
 *       // per-trajectory gate noise; its presence also makes noisy
 *       // gates stochastic (they end the prefix)
 *   std::vector<double> weights(const State&) const;
 *       // basis weights of the prefix: the tail is sampled from a
 *       // SampleTable when no instruction is replayed before it
 *   void sampleAll(const State&, Rng&, std::string* bits) const;
 *       // one bit per qubit from any state: the tail is always sampled
 *   double truncationError(const State&) const;
 *
 * Determinism: every stochastic draw comes from the shot's Rng, in
 * instruction order, so counts are bit-identical for any thread count.
 */
#ifndef QA_BACKEND_SHOT_PROGRAM_HPP
#define QA_BACKEND_SHOT_PROGRAM_HPP

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.hpp"
#include "common/error.hpp"
#include "sim/engine.hpp"
#include "sim/noise.hpp"

namespace qa
{
namespace backend
{

/** Where a circuit's shot-invariant prefix ends and its tail begins. */
struct ShotPlan
{
    /** Instructions [0, split) are shot-invariant and evolved once. */
    size_t split = 0;

    /**
     * Instructions [tail, end) are measurements and barriers only, and
     * tail >= split. tail == split means nothing stochastic precedes
     * the terminal measurements.
     */
    size_t tail = 0;

    /** (qubit, clbit) pairs of the measurements in [tail, end). */
    std::vector<std::pair<int, int>> terminal_measures;
};

/**
 * Analyze a circuit. The prefix ends at the first measurement or reset,
 * or at the first gate one of `noise`'s Kraus channel lists applies to
 * (pass null when the backend applies gate noise exactly).
 */
ShotPlan analyzeShotPlan(const QuantumCircuit& circuit,
                         const NoiseModel* noise);

/** The enabled noise model (validated), or null when absent/disabled. */
const NoiseModel* activeNoise(const NoiseModel* noise);

/**
 * Cumulative-weight table over basis-state weights: built once per
 * prefix, each draw costs one uniform plus an O(log d) upper_bound.
 */
class SampleTable
{
  public:
    /** Takes non-negative weights (need not be normalized). */
    explicit SampleTable(std::vector<double> weights);

    /** Sample a basis index from the underlying distribution. */
    uint64_t sample(Rng& rng) const;

  private:
    std::vector<double> cumulative_;
};

/** The shot plan of one job on one backend adapter (see file doc). */
template <typename Adapter>
class ShotProgram final : public PreparedCircuit
{
  public:
    using State = typename Adapter::State;
    using Gate = typename Adapter::Gate;

    /**
     * @param circuit Circuit to execute (read during construction only).
     * @param noise The active noise model (activeNoise) or null; must
     *        outlive the program.
     * @param adapter The backend's state adapter.
     * @param initial The backend's |0...0> state.
     */
    ShotProgram(const QuantumCircuit& circuit, const NoiseModel* noise,
                Adapter adapter, State initial)
        : adapter_(std::move(adapter)),
          noise_(noise),
          num_qubits_(circuit.numQubits()),
          clbits0_(size_t(std::max(circuit.numClbits(), 0)), '0'),
          prefix_(std::move(initial))
    {
        const auto& instrs = circuit.instructions();
        ShotPlan plan =
            analyzeShotPlan(circuit, kTrajectoryNoise ? noise_ : nullptr);

        for (const Step& step : compile(instrs, 0, plan.split, false)) {
            adapter_.apply(prefix_, step.gate);
        }

        const bool sample_tail =
            kAnyStateTail || (kTableTail && plan.tail == plan.split);
        const size_t suffix_end = sample_tail ? plan.tail : instrs.size();
        suffix_ = compile(instrs, plan.split, suffix_end, true);
        if constexpr (!kReplays) {
            QA_REQUIRE(suffix_.empty(),
                       "backend runs terminal measurements only (no "
                       "reset, no gate after a measurement)");
        }
        if (sample_tail) tail_ = std::move(plan.terminal_measures);
        if constexpr (kTableTail) {
            if (!tail_.empty()) table_.emplace(adapter_.weights(prefix_));
        }
    }

    std::unique_ptr<ShotSampler>
    makeSampler() const override
    {
        return std::make_unique<Sampler>(*this);
    }

    double
    truncationError() const override
    {
        if constexpr (requires(const Adapter& a, const State& s) {
                          a.truncationError(s);
                      }) {
            return adapter_.truncationError(prefix_);
        }
        return 0.0;
    }

  private:
    static constexpr bool kReplays =
        requires(const Adapter& a, State& s, Rng& rng) {
            a.measure(s, 0, rng);
            a.reset(s, 0, rng);
        };
    static constexpr bool kTrajectoryNoise =
        requires(const Adapter& a, State& s, const Gate& g, Rng& rng) {
            a.applyNoise(s, g, rng);
        };
    static constexpr bool kTableTail =
        requires(const Adapter& a, const State& s) { a.weights(s); };
    static constexpr bool kAnyStateTail =
        requires(const Adapter& a, const State& s, Rng& rng,
                 std::string* bits) { a.sampleAll(s, rng, bits); };

    /** One resolved instruction (barriers are dropped). */
    struct Step
    {
        OpType type = OpType::kGate;
        Gate gate;     ///< kGate only
        int qubit = 0; ///< kMeasure / kReset
        int cbit = -1; ///< kMeasure
    };

    /** Per-worker scratch: one state buffer reused across shots. */
    class Sampler final : public ShotSampler
    {
      public:
        explicit Sampler(const ShotProgram& program) : program_(program)
        {
            if (!program.suffix_.empty()) scratch_.emplace(program.prefix_);
        }

        std::string
        runOne(Rng& rng) override
        {
            return program_.runShot(scratch_, rng);
        }

      private:
        const ShotProgram& program_;
        std::optional<State> scratch_;
    };

    std::vector<Step>
    compile(const std::vector<Instruction>& instrs, size_t begin,
            size_t end, bool replayed) const
    {
        std::vector<Step> steps;
        for (Instruction& instr :
             adapter_.lower(instrs, begin, end, replayed)) {
            if (instr.type == OpType::kBarrier) continue;
            Step step;
            step.type = instr.type;
            if (instr.type == OpType::kGate) {
                step.gate = adapter_.resolve(std::move(instr));
            } else {
                step.qubit = instr.qubits[0];
                step.cbit = instr.cbit;
            }
            steps.push_back(std::move(step));
        }
        return steps;
    }

    /** Store one measured bit, through readout error when active. */
    void
    record(std::string& clbits, int cbit, int outcome, Rng& rng) const
    {
        if (noise_ != nullptr) {
            outcome = applyReadoutError(outcome, *noise_, rng);
        }
        clbits[size_t(cbit)] = outcome ? '1' : '0';
    }

    std::string
    runShot(std::optional<State>& scratch, Rng& rng) const
    {
        std::string clbits = clbits0_;
        const State* state = &prefix_;
        if constexpr (kReplays) {
            if (!suffix_.empty()) {
                *scratch = prefix_;
                replay(*scratch, clbits, rng);
                state = &*scratch;
            }
        }
        if (tail_.empty()) return clbits;
        if constexpr (kTableTail) {
            const uint64_t index = table_->sample(rng);
            for (const auto& [q, c] : tail_) {
                record(clbits, c, int((index >> (num_qubits_ - 1 - q)) & 1),
                       rng);
            }
        } else if constexpr (kAnyStateTail) {
            std::string bits;
            adapter_.sampleAll(*state, rng, &bits);
            for (const auto& [q, c] : tail_) {
                record(clbits, c, bits[size_t(q)] == '1' ? 1 : 0, rng);
            }
        }
        return clbits;
    }

    void
    replay(State& state, std::string& clbits, Rng& rng) const
    {
        for (const Step& step : suffix_) {
            switch (step.type) {
              case OpType::kGate:
                adapter_.apply(state, step.gate);
                if constexpr (kTrajectoryNoise) {
                    adapter_.applyNoise(state, step.gate, rng);
                }
                break;
              case OpType::kMeasure:
                record(clbits, step.cbit,
                       adapter_.measure(state, step.qubit, rng), rng);
                break;
              case OpType::kReset:
                adapter_.reset(state, step.qubit, rng);
                break;
              case OpType::kBarrier:
                break;
            }
        }
    }

    Adapter adapter_;
    const NoiseModel* noise_;
    int num_qubits_;
    std::string clbits0_;
    State prefix_;
    std::vector<Step> suffix_;

    /** Terminal measurements served by sampling (empty: none). */
    std::vector<std::pair<int, int>> tail_;
    std::optional<SampleTable> table_;
};

} // namespace backend
} // namespace qa

#endif // QA_BACKEND_SHOT_PROGRAM_HPP
