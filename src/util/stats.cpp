#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/threadpool.hpp"

namespace rfc {

void
RunningStat::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        if (x < min_)
            min_ = x;
        if (x > max_)
            max_ = x;
    }
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStat::ci95() const
{
    if (n_ < 2)
        return 0.0;
    return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double
binnedQuantile(const std::vector<long long> &counts,
               const std::vector<double> &edges, double q)
{
    if (edges.size() != counts.size() + 1)
        throw std::invalid_argument(
            "binnedQuantile: need counts.size() + 1 edges");
    if (!(q >= 0.0 && q <= 1.0))
        throw std::invalid_argument("binnedQuantile: q outside [0, 1]");
    long long total = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        if (counts[b] < 0)
            throw std::invalid_argument("binnedQuantile: negative count");
        if (!(edges[b] < edges[b + 1]))
            throw std::invalid_argument(
                "binnedQuantile: edges not strictly increasing");
        total += counts[b];
    }
    if (total == 0)
        throw std::invalid_argument("binnedQuantile: empty histogram");

    // Position of order statistic k (0-based) under the evenly-spread
    // model, by walking the cumulative counts.
    auto value_at = [&](long long k) {
        long long seen = 0;
        for (std::size_t b = 0; b < counts.size(); ++b) {
            if (k < seen + counts[b]) {
                double lo = edges[b];
                double hi = edges[b + 1];
                double within =
                    (static_cast<double>(k - seen) + 0.5) /
                    static_cast<double>(counts[b]);
                return lo + within * (hi - lo);
            }
            seen += counts[b];
        }
        return edges.back();
    };

    double h = q * static_cast<double>(total - 1);
    auto k = static_cast<long long>(h);
    double frac = h - static_cast<double>(k);
    double lo = value_at(k);
    if (frac == 0.0 || k + 1 >= total)
        return lo;
    return lo + frac * (value_at(k + 1) - lo);
}

namespace {

/** Standard normal CDF. */
double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

/** Components per block of the CDF pass: its staging arrays stay in L1. */
constexpr std::size_t kBlock = 256;

/**
 * A validated mixture ready for CDF evaluation, one array per hoisted
 * Wilson-Hilferty constant, in component order.  A point mass (mean
 * <= 0 or variance <= 0) sits at @c origin = shift + max(mean, 0) and
 * has zero constants; a gamma component's excess starts at
 * @c origin = shift.
 */
struct PreparedMixture
{
    std::vector<double> origin, inv_mean, omh, inv_sqrt_h, weight;
    std::vector<unsigned char> point;
    double total = 0.0;  //!< sum of weights, in component order
    /** Initial quantile bracket: lowest origin, highest at + 12 sd. */
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();

    std::size_t size() const { return weight.size(); }

    void
    push(double o, double im, double om, double ish, double w, bool pt)
    {
        origin.push_back(o);
        inv_mean.push_back(im);
        omh.push_back(om);
        inv_sqrt_h.push_back(ish);
        weight.push_back(w);
        point.push_back(pt ? 1 : 0);
    }
};

PreparedMixture
prepareMixture(const std::vector<ShiftedGamma> &mix)
{
    if (mix.empty())
        throw std::invalid_argument(
            "shiftedGammaMixture: empty mixture");
    PreparedMixture m;
    for (const auto &c : mix) {
        if (!(c.weight > 0.0) || !std::isfinite(c.weight) ||
            !std::isfinite(c.shift) || !std::isfinite(c.mean) ||
            !std::isfinite(c.variance))
            throw std::invalid_argument(
                "shiftedGammaMixture: bad component");
        m.total += c.weight;
    }
    for (auto *v : {&m.origin, &m.inv_mean, &m.omh, &m.inv_sqrt_h,
                    &m.weight})
        v->reserve(mix.size());
    m.point.reserve(mix.size());
    for (const auto &c : mix) {
        const bool point = c.mean <= 0.0 || c.variance <= 0.0;
        const double at = c.shift + (c.mean > 0.0 ? c.mean : 0.0);
        double inv_mean = 0.0, omh = 0.0, inv_sqrt_h = 0.0;
        if (!point) {
            // Gamma(k, theta) with k theta = mean: (X / mean)^(1/3) is
            // approximately Normal(1 - h, h) with h = 1 / (9 k).  h = 0
            // or h = inf (extreme mean/variance ratios) can turn z, and
            // so the CDF, into NaN.
            double k = c.mean * c.mean / c.variance;
            double h = 1.0 / (9.0 * k);
            inv_mean = 1.0 / c.mean;
            omh = 1.0 - h;
            inv_sqrt_h = 1.0 / std::sqrt(h);
        }
        const double origin = point ? at : c.shift;
        m.lo = std::min(m.lo, origin);
        m.hi = std::max(m.hi, at + (point ? 0.0
                                          : 12.0 * std::sqrt(c.variance)));
        m.push(origin, inv_mean, omh, inv_sqrt_h, c.weight, point);
    }
    return m;
}

/**
 * Every @p stride-th component of @p m, from the first, with @p m's
 * bracket: the mixture whose quantile seeds @p m's.
 */
PreparedMixture
subsample(const PreparedMixture &m, std::size_t stride)
{
    PreparedMixture sub;
    for (std::size_t i = 0; i < m.size(); i += stride) {
        sub.push(m.origin[i], m.inv_mean[i], m.omh[i], m.inv_sqrt_h[i],
                 m.weight[i], m.point[i] != 0);
        sub.total += m.weight[i];
    }
    sub.lo = m.lo;
    sub.hi = m.hi;
    return sub;
}

/** Weighted CDF and density sums at one x (not yet divided by the total). */
struct CdfSums
{
    double cdf = 0.0;
    double density = 0.0;
};

/**
 * One pass over @p m at @p x.  Staged per block - every live cbrt,
 * then every erfc and exp, then the block's CDF terms added in
 * component order - so each CDF term and the summation order are
 * those of the plain loop, and so is every bit of the CDF sum.  A term
 * that is not live (a gamma at or before its origin, a point mass
 * above x) is +0, which leaves a nonnegative sum unchanged.  Point
 * masses add no density.
 */
CdfSums
cdfSums(const PreparedMixture &m, double x)
{
    double term[kBlock], arg[kBlock];
    unsigned live[kBlock];
    CdfSums sums;
    for (std::size_t b = 0; b < m.size(); b += kBlock) {
        const std::size_t len = std::min(kBlock, m.size() - b);
        const double *origin = m.origin.data() + b;
        const double *inv_mean = m.inv_mean.data() + b;
        const double *omh = m.omh.data() + b;
        const double *inv_sqrt_h = m.inv_sqrt_h.data() + b;
        const double *weight = m.weight.data() + b;
        const unsigned char *point = m.point.data() + b;
        std::size_t k = 0;
        for (std::size_t i = 0; i < len; ++i) {
            term[i] = point[i] && x >= origin[i] ? weight[i] : 0.0;
            const double t = x - origin[i];
            if (!point[i] && t > 0.0) {
                live[k] = static_cast<unsigned>(i);
                arg[k++] = t * inv_mean[i];
            }
        }
        for (std::size_t j = 0; j < k; ++j)
            arg[j] = std::cbrt(arg[j]);
        for (std::size_t j = 0; j < k; ++j) {
            const unsigned i = live[j];
            const double c = arg[j];
            const double z = (c - omh[i]) * inv_sqrt_h[i];
            term[i] = weight[i] * normalCdf(z);
            // d/dx Phi(z) = phi(z) inv_sqrt_h inv_mean / (3 c^2); the
            // 1 / sqrt(2 pi) of phi is applied once, below.
            sums.density += weight[i] * std::exp(-0.5 * z * z) *
                            inv_sqrt_h[i] * inv_mean[i] / (3.0 * c * c);
        }
        for (std::size_t i = 0; i < len; ++i)
            sums.cdf += term[i];
    }
    sums.density *= 0.3989422804014327;  // 1 / sqrt(2 pi)
    return sums;
}

/**
 * The q-quantile of @p m, starting from @p x (the midpoint of the
 * bracket when @p x is not strictly inside it), by safeguarded Newton
 * on cdfSums.  The bracket (lo, hi] holds the smallest x with
 * CDF(x) >= q: every pass moves lo up to a point below q or hi down to
 * one at or above q.  The prepared upper end is unverified until a
 * pass there reaches q, and grows by its initial width (at most 200
 * times) while one does not: gamma tails reach CDF = 1 in floating
 * point once erfc underflows.  A Newton step is taken when it lands
 * strictly inside the bracket; otherwise the next point is the
 * midpoint, or the unverified upper end (point masses, a zero or
 * non-finite density, a NaN CDF).
 * Stops when the bracket is at most 1e-9 max(1, |hi|) wide (returning
 * its midpoint) or on a Newton step below 1e-12 max(1, |x|) (returning
 * the step's end).  Adds the passes it took to @p passes.
 */
double
newtonQuantile(const PreparedMixture &m, double q, double x,
               std::size_t &passes)
{
    double lo = m.lo, hi = m.hi;
    if (q == 0.0 || hi <= lo)
        return lo;
    const double width = hi - lo;
    int grown = 0;
    bool hi_holds = false;  // a pass has shown CDF(hi) >= q
    if (!(x > lo && x < hi))
        x = 0.5 * (lo + hi);
    for (int it = 0; it < 400; ++it) {
        const CdfSums s = cdfSums(m, x);
        ++passes;
        const double v = s.cdf / m.total;
        if (v >= q) {
            hi = x;
            hi_holds = true;
        } else {
            lo = x;
            if (lo >= hi && grown < 200) {
                hi += width;
                ++grown;
            }
        }
        const bool closed = hi_holds || grown == 200;
        if (closed && hi - lo <= 1e-9 * std::max(1.0, std::abs(hi)))
            break;
        const double newton = (v - q) / (s.density / m.total);
        const double next = x - newton;
        if (next > lo && next < hi) {
            if (std::abs(newton) < 1e-12 * std::max(1.0, std::abs(x)))
                return next;
            x = next;
        } else {
            x = closed ? 0.5 * (lo + hi) : hi;
        }
    }
    return 0.5 * (lo + hi);
}

} // namespace

double
shiftedGammaMixtureCdf(const std::vector<ShiftedGamma> &mix, double x)
{
    const PreparedMixture m = prepareMixture(mix);
    return cdfSums(m, x).cdf / m.total;
}

double
shiftedGammaMixtureQuantile(const std::vector<ShiftedGamma> &mix,
                            double q)
{
    return shiftedGammaMixtureQuantiles(mix, {q}).values[0];
}

MixtureQuantiles
shiftedGammaMixtureQuantiles(const std::vector<ShiftedGamma> &mix,
                             const std::vector<double> &qs,
                             ThreadPool *pool)
{
    const PreparedMixture m = prepareMixture(mix);
    for (double q : qs)
        if (!(q >= 0.0 && q <= 1.0))
            throw std::invalid_argument(
                "shiftedGammaMixtureQuantile: q outside [0, 1]");
    // The guess is the same search on ~4k components.
    constexpr std::size_t kSubsample = 4096;
    const PreparedMixture sub =
        subsample(m, std::max<std::size_t>(8, m.size() / kSubsample));
    MixtureQuantiles out;
    out.values.resize(qs.size());
    std::vector<std::size_t> passes(qs.size(), 0);
    parallelFor(pool, qs.size(), [&](std::size_t i) {
        std::size_t uncounted = 0;
        const double guess = newtonQuantile(
            sub, qs[i], std::numeric_limits<double>::quiet_NaN(),
            uncounted);
        out.values[i] = newtonQuantile(m, qs[i], guess, passes[i]);
    });
    for (std::size_t p : passes)
        out.cdf_passes += p;
    return out;
}

double
chiSquareStat(const std::vector<long long> &observed,
              const std::vector<double> &expected)
{
    double stat = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        double e = expected[i];
        auto o = static_cast<double>(observed[i]);
        if (e <= 0.0) {
            if (o > 0.0)
                return std::numeric_limits<double>::infinity();
            continue;
        }
        double d = o - e;
        stat += d * d / e;
    }
    return stat;
}

double
chiSquareUniformStat(const std::vector<long long> &observed)
{
    long long total = 0;
    for (long long o : observed)
        total += o;
    double e = observed.empty()
                   ? 0.0
                   : static_cast<double>(total) /
                         static_cast<double>(observed.size());
    return chiSquareStat(observed, std::vector<double>(observed.size(), e));
}

double
chiSquareCritical(int df, double alpha)
{
    // Upper-tail standard normal quantile via Acklam-style rational
    // approximation (good to ~1e-4, far tighter than the test margins).
    double p = 1.0 - alpha;
    double t = std::sqrt(-2.0 * std::log(p < 0.5 ? p : 1.0 - p));
    double z = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) /
                       (1.0 + 1.432788 * t + 0.189269 * t * t +
                        0.001308 * t * t * t);
    if (p < 0.5)
        z = -z;
    // Wilson-Hilferty: chi2_df ~ df * (1 - 2/(9 df) + z sqrt(2/(9 df)))^3.
    double d = static_cast<double>(df);
    double h = 2.0 / (9.0 * d);
    double c = 1.0 - h + z * std::sqrt(h);
    return d * c * c * c;
}

} // namespace rfc
