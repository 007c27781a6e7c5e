#include "sim/engine.hpp"

namespace qa
{

int
applyReadoutError(int outcome, const NoiseModel& noise, Rng& rng)
{
    if (outcome == 0 && noise.readout_p01 > 0.0 &&
        rng.bernoulli(noise.readout_p01)) {
        return 1;
    }
    if (outcome == 1 && noise.readout_p10 > 0.0 &&
        rng.bernoulli(noise.readout_p10)) {
        return 0;
    }
    return outcome;
}

int
resolveShotThreads(int requested, int shots)
{
    int n = requested;
    if (n <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        n = hw == 0 ? 1 : int(hw);
    }
    return std::max(1, std::min(n, shots));
}

} // namespace qa
