/**
 * @file
 * Deterministic pseudo-random number generation for all experiments.
 *
 * Every stochastic component of the library (topology generators, traffic
 * patterns, arbiters, fault injectors) draws from an explicitly seeded Rng
 * so that each figure and table of the reproduction is bit-reproducible.
 * The generator is xoshiro256** seeded through splitmix64, which is fast,
 * has a 256-bit state and passes BigCrush.
 */
#ifndef RFC_UTIL_RNG_HPP
#define RFC_UTIL_RNG_HPP

#include <cstdint>
#include <vector>

namespace rfc {

/**
 * xoshiro256** pseudo-random generator with convenience sampling helpers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t nextU64();

    /**
     * Uniform integer in [0, bound), bound > 0.
     * Uses Lemire's multiply-shift rejection method (unbiased).
     */
    std::uint64_t uniform(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double uniformReal();

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniform(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Pick a uniformly random element of a non-empty vector. */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        return v[uniform(v.size())];
    }

  private:
    std::uint64_t s_[4];
};

/**
 * Deterministic per-trial seed for parallel experiment grids.
 *
 * Hashes {base, stream, rep} through three chained splitmix64 rounds so
 * that distinct coordinates give statistically independent seeds.  This
 * replaces additive schemes like base + 7919*rep, whose arithmetic
 * progressions collide across sweep points and between entry points
 * (e.g. rep 104729/7919 aliasing).  @p stream identifies the grid point
 * (network x traffic x load index), @p rep the repetition within it.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t stream,
                         std::uint64_t rep);

} // namespace rfc

#endif // RFC_UTIL_RNG_HPP
