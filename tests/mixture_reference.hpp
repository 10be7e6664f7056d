/**
 * @file
 * Test-only reference for the shifted-gamma mixture quantile: the
 * plain bracketed bisection that evaluates the full mixture CDF for
 * every decision, written out independently of util/stats.  The
 * library's certified replay must return the same double, bit for bit
 * (tier 1 in test_queue_model, tier 2 in test_prop_queue).  Also holds
 * the random mixture families both suites draw from.
 */
#ifndef RFC_TESTS_MIXTURE_REFERENCE_HPP
#define RFC_TESTS_MIXTURE_REFERENCE_HPP

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rfc {
namespace reference {

/** Wilson-Hilferty constants of one component, as the bisection uses. */
struct Prepared
{
    bool point;
    double shift, at, inv_mean, omh, inv_sqrt_h, weight;
};

inline std::vector<Prepared>
prepare(const std::vector<ShiftedGamma> &mix, double &lo, double &hi)
{
    std::vector<Prepared> prep;
    lo = std::numeric_limits<double>::infinity();
    hi = -std::numeric_limits<double>::infinity();
    for (const auto &c : mix) {
        Prepared p;
        p.point = c.mean <= 0.0 || c.variance <= 0.0;
        p.shift = c.shift;
        p.at = c.shift + (c.mean > 0.0 ? c.mean : 0.0);
        p.weight = c.weight;
        if (!p.point) {
            double k = c.mean * c.mean / c.variance;
            double h = 1.0 / (9.0 * k);
            p.inv_mean = 1.0 / c.mean;
            p.omh = 1.0 - h;
            p.inv_sqrt_h = 1.0 / std::sqrt(h);
        } else {
            p.inv_mean = p.omh = p.inv_sqrt_h = 0.0;
        }
        lo = std::min(lo, p.point ? p.at : p.shift);
        hi = std::max(hi, p.at + (p.point ? 0.0
                                          : 12.0 * std::sqrt(
                                                       c.variance)));
        prep.push_back(p);
    }
    return prep;
}

inline double
cdf(const std::vector<Prepared> &prep, double total, double x)
{
    double sum = 0.0;
    for (const auto &p : prep) {
        if (p.point) {
            sum += x >= p.at ? p.weight : 0.0;
            continue;
        }
        double t = x - p.shift;
        if (t <= 0.0)
            continue;
        double z = (std::cbrt(t * p.inv_mean) - p.omh) * p.inv_sqrt_h;
        sum += p.weight * (0.5 * std::erfc(-z / std::sqrt(2.0)));
    }
    return sum / total;
}

inline double
totalWeight(const std::vector<ShiftedGamma> &mix)
{
    double total = 0.0;
    for (const auto &c : mix)
        total += c.weight;
    return total;
}

/** The mixture CDF the quantile bisects. */
inline double
mixtureCdf(const std::vector<ShiftedGamma> &mix, double x)
{
    double lo, hi;
    return cdf(prepare(mix, lo, hi), totalWeight(mix), x);
}

/** Plain bisection: one full CDF evaluation per decision. */
inline double
plainBisectionQuantile(const std::vector<ShiftedGamma> &mix, double q)
{
    double total = totalWeight(mix);
    double lo, hi;
    std::vector<Prepared> prep = prepare(mix, lo, hi);
    if (q == 0.0 || hi <= lo)
        return lo;
    double width = hi - lo;
    for (int i = 0; i < 200 && cdf(prep, total, hi) < q; ++i)
        hi += width;
    for (int it = 0;
         it < 200 && hi - lo > 1e-9 * std::max(1.0, std::abs(hi));
         ++it) {
        double mid = 0.5 * (lo + hi);
        if (cdf(prep, total, mid) >= q)
            hi = mid;
        else
            lo = mid;
    }
    return 0.5 * (lo + hi);
}

inline bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** The quantile levels every comparison covers, endpoints included. */
inline const std::vector<double> &
levels()
{
    static const std::vector<double> qs = {0.0,  1e-9,     0.01, 0.5,
                                           0.99, 0.999999, 1.0};
    return qs;
}

enum class Family
{
    kFig10,         //!< shifts 18..26, shape k in [0.2, 8]
    kTinyVariance,  //!< shape k up to 1e5: the widest error bound
    kPointMasses,   //!< fig10-like with ~40% point masses
    kWideWeights,   //!< fig10-like, weights from 1e-3 to 1
    kRugged,        //!< shifts -20..80, k from 1e-3 to 1e5, some atoms
};
constexpr int kFamilies = 5;

inline double
logUniform(Rng &rng, double lo, double hi)
{
    return lo * std::pow(hi / lo, rng.uniformReal());
}

/** @p n random components of family @p f. */
inline std::vector<ShiftedGamma>
randomMixture(Rng &rng, Family f, std::size_t n)
{
    std::vector<ShiftedGamma> mix;
    mix.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ShiftedGamma c;
        double k = 0.2 + 7.8 * rng.uniformReal();
        c.shift = static_cast<double>(rng.uniformInRange(18, 26));
        c.mean = logUniform(rng, 0.1, 50.0);
        c.weight = 0.01 + rng.uniformReal();
        switch (f) {
        case Family::kFig10:
            break;
        case Family::kTinyVariance:
            k = logUniform(rng, 1e3, 1e5);
            break;
        case Family::kPointMasses:
            if (rng.bernoulli(0.2))
                k = 0.0;  // variance 0: an atom at shift + mean
            else if (rng.bernoulli(0.25))
                c.mean = -rng.uniformReal();  // an atom at shift
            break;
        case Family::kWideWeights:
            c.weight = logUniform(rng, 1e-3, 1.0);
            break;
        case Family::kRugged:
            c.shift = -20.0 + 100.0 * rng.uniformReal();
            c.mean = logUniform(rng, 1e-2, 1e2);
            k = rng.bernoulli(0.1) ? 0.0 : logUniform(rng, 1e-3, 1e5);
            break;
        }
        c.variance = k > 0.0 ? c.mean * c.mean / k : 0.0;
        mix.push_back(c);
    }
    return mix;
}

} // namespace reference
} // namespace rfc

#endif // RFC_TESTS_MIXTURE_REFERENCE_HPP
