#include "util/rng.hpp"

#include <cmath>

namespace rfc {

namespace {

/** splitmix64 step, used for seeding. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::uniform(std::uint64_t bound)
{
    // Lemire's method: multiply and reject the biased low range.
    std::uint64_t x = nextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        std::uint64_t threshold = -bound % bound;
        while (lo < threshold) {
            x = nextU64();
            m = static_cast<__uint128_t>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::uniformInRange(std::int64_t lo, std::int64_t hi)
{
    return lo + static_cast<std::int64_t>(
        uniform(static_cast<std::uint64_t>(hi - lo + 1)));
}

double
Rng::uniformReal()
{
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

bool
Rng::bernoulli(double p)
{
    return uniformReal() < p;
}

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t stream, std::uint64_t rep)
{
    // Chain one splitmix64 round per coordinate; the odd multipliers
    // keep stream/rep = 0 from collapsing onto the plain base hash.
    std::uint64_t x = base;
    std::uint64_t h = splitmix64(x);
    x = h ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
    h = splitmix64(x);
    x = h ^ (0xbf58476d1ce4e5b9ULL * (rep + 1));
    return splitmix64(x);
}

} // namespace rfc
