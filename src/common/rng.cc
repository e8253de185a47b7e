#include "rng.hh"

#include "logging.hh"

namespace lsdgnn {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state)
        word = splitMix64(sm);
}

std::uint64_t
Rng::nextBoundedSlow(__uint128_t m, std::uint64_t bound)
{
    lsd_assert(bound > 0, "nextBounded requires a positive bound");
    std::uint64_t low = static_cast<std::uint64_t>(m);
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
        m = static_cast<__uint128_t>((*this)()) * bound;
        low = static_cast<std::uint64_t>(m);
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double
Rng::nextDouble()
{
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    lsd_assert(lo <= hi, "nextRange requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>((*this)());
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

Rng
Rng::fork()
{
    return Rng((*this)());
}

} // namespace lsdgnn
