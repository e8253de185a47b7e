/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component (graph generator, samplers, the AxE
 * hardware RNG) draws from an explicitly seeded Rng so that runs are
 * reproducible. The generator is xoshiro256** seeded via SplitMix64,
 * matching the construction recommended by its authors.
 */

#ifndef LSDGNN_COMMON_RNG_HH
#define LSDGNN_COMMON_RNG_HH

#include <array>
#include <cstdint>

namespace lsdgnn {

/**
 * xoshiro256** pseudo-random generator.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also
 * feed <random> distributions when needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed, expanded with SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit value. */
    result_type
    operator()()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);

        return result;
    }

    /**
     * Uniform integer in [0, bound). @pre bound > 0.
     *
     * Lemire's nearly-divisionless method. The accept branch is inline;
     * the rare draw whose low product word falls below @p bound (and a
     * zero bound, which wraps `bound - 1` and fails the precondition
     * there) goes to the out-of-line rejection loop.
     */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        const __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
        if (static_cast<std::uint64_t>(m) <= bound - 1) [[unlikely]]
            return nextBoundedSlow(m, bound);
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform integer in [lo, hi]. @pre lo <= hi. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Bernoulli draw with probability @p p of returning true. */
    bool nextBool(double p);

    /**
     * Fork an independent stream; used to give each simulated server /
     * AxE core its own decorrelated generator.
     */
    Rng fork();

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** nextBounded's rejection loop, from the first product @p m. */
    std::uint64_t nextBoundedSlow(__uint128_t m, std::uint64_t bound);

    std::array<std::uint64_t, 4> state;
};

/** SplitMix64 step; exposed for seeding schemes and tests. */
std::uint64_t splitMix64(std::uint64_t &state);

} // namespace lsdgnn

#endif // LSDGNN_COMMON_RNG_HH
