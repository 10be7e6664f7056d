#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

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

/**
 * One mixture component with its Wilson-Hilferty constants hoisted out
 * of the CDF loop.  A point mass (mean <= 0 or variance <= 0) sits at
 * @c origin = shift + max(mean, 0); a gamma component's excess starts
 * at @c origin = shift.
 */
struct PreparedComponent
{
    bool point;
    double origin, inv_mean, omh, inv_sqrt_h, weight;
};

/** A validated mixture ready for CDF evaluation. */
struct PreparedMixture
{
    std::vector<PreparedComponent> comps;
    double total = 0.0;  //!< sum of weights, in component order
    /** Initial quantile bracket: lowest origin, highest at + 12 sd. */
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    /** Worst-case rounding error of mixtureCdf (see prepareMixture). */
    double err = 0.0;
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
    m.comps.reserve(mix.size());
    double spread = 0.0;  // sum of weight * (1 + inv_sqrt_h)
    bool bounded = std::isfinite(m.total);
    for (const auto &c : mix) {
        PreparedComponent p;
        p.point = c.mean <= 0.0 || c.variance <= 0.0;
        double at = c.shift + (c.mean > 0.0 ? c.mean : 0.0);
        p.origin = p.point ? at : c.shift;
        p.weight = c.weight;
        if (!p.point) {
            // Gamma(k, theta) with k theta = mean: (X / mean)^(1/3) is
            // approximately Normal(1 - h, h) with h = 1 / (9 k).
            double k = c.mean * c.mean / c.variance;
            double h = 1.0 / (9.0 * k);
            p.inv_mean = 1.0 / c.mean;
            p.omh = 1.0 - h;
            p.inv_sqrt_h = 1.0 / std::sqrt(h);
            // h = 0 or h = inf (extreme mean/variance ratios) can turn
            // z into NaN; such a mixture gets no certificates.
            bounded = bounded && h > 0.0 && std::isfinite(h);
        } else {
            p.inv_mean = p.omh = p.inv_sqrt_h = 0.0;
        }
        m.lo = std::min(m.lo, p.origin);
        m.hi = std::max(m.hi, at + (p.point ? 0.0
                                            : 12.0 * std::sqrt(
                                                         c.variance)));
        spread += p.weight * (1.0 + p.inv_sqrt_h);
        m.comps.push_back(p);
    }
    // Rounding-error bound of mixtureCdf against the same formula in
    // exact arithmetic on the stored constants and the rounded
    // t = x - origin, a function nondecreasing in x.  With eps = 2^-52
    // and libm's cbrt within 4 ulps and erfc within 8:
    //  - z = (cbrt(t inv_mean) - omh) inv_sqrt_h is off by at most
    //    4.2 eps inv_sqrt_h cbrt(.) + eps |z|; since inv_sqrt_h cbrt(.)
    //    <= |z| + inv_sqrt_h and phi(z) <= 0.4, phi(z) |z| <= 0.25, the
    //    component CDF moves by <= eps (1.3 + 1.7 inv_sqrt_h);
    //  - -z / sqrt(2), erfc and the weight product add <= 8.8 eps per
    //    unit weight;
    //  - summing n nonnegative terms adds <= n eps / 2 of the total and
    //    the division by the total eps / 2.
    // That totals eps (n / 2 + 1 + sum w (10.1 + 1.7 inv_sqrt_h) / total).
    // The bound below exceeds it by over 60 eps, which also covers the
    // rounding of q -/+ 2 err in CertifiedCdf.
    constexpr double eps = std::numeric_limits<double>::epsilon();
    m.err = bounded ? eps * (2.0 * static_cast<double>(m.comps.size()) +
                             64.0 + 16.0 * spread / m.total)
                    : std::numeric_limits<double>::infinity();
    return m;
}

/** Sum of weight * component CDF at @p x (not yet divided by total). */
double
weightedCdfSum(const std::vector<PreparedComponent> &comps, double x)
{
    double sum = 0.0;
    for (const auto &p : comps) {
        if (p.point) {
            sum += x >= p.origin ? p.weight : 0.0;
            continue;
        }
        double t = x - p.origin;
        if (t <= 0.0)
            continue;
        double z = (std::cbrt(t * p.inv_mean) - p.omh) * p.inv_sqrt_h;
        sum += p.weight * normalCdf(z);
    }
    return sum;
}

double
mixtureCdf(const PreparedMixture &m, double x)
{
    return weightedCdfSum(m.comps, x) / m.total;
}

/**
 * The decision "mixtureCdf(x) >= q", answered from certificates where
 * possible.  Every exact evaluation v = mixtureCdf(x) with v < q - 2E
 * proves F(x) < q - E for the exact-arithmetic CDF F (E = m.err), so
 * by monotonicity every x' <= x has F(x') < q - E and a computed value
 * below q; symmetrically for v >= q + 2E.  Only points strictly
 * between the two certificates are evaluated, so each answer equals
 * the one a fresh evaluation would give, bit for bit.
 */
class CertifiedCdf
{
  public:
    CertifiedCdf(const PreparedMixture &m, double q) : m_(m), q_(q) {}

    double
    exact(double x)
    {
        double v = mixtureCdf(m_, x);
        if (v < q_ - 2.0 * m_.err)
            below_ = std::max(below_, x);
        else if (v >= q_ + 2.0 * m_.err)
            above_ = std::min(above_, x);
        return v;
    }

    bool
    atOrAbove(double x)
    {
        if (x <= below_)
            return false;
        if (x >= above_)
            return true;
        return exact(x) >= q_;
    }

    double below() const { return below_; }
    double above() const { return above_; }

  private:
    const PreparedMixture &m_;
    double q_;
    double below_ = -std::numeric_limits<double>::infinity();
    double above_ = std::numeric_limits<double>::infinity();
};

/**
 * Place exact evaluations just either side of the q-quantile so that
 * the bisection's certificates decide nearly all of its steps.  A
 * guess from bisecting a strided subsample's CDF seeds secant steps on
 * the exact CDF; two probes at twice the uncertifiable band 2E / slope
 * (at least half the bisection tolerance) then pin the root from both
 * sides.  Nothing here decides the result: a poor guess only costs
 * evaluations.
 */
void
certifyNearRoot(CertifiedCdf &cdf, const PreparedMixture &m, double q,
                double lo, double hi)
{
    constexpr std::size_t kSubsample = 4096;
    constexpr int kGuessSteps = 16;
    constexpr int kSecantSteps = 6;

    std::size_t stride = std::max<std::size_t>(
        8, m.comps.size() / kSubsample);
    std::vector<PreparedComponent> sub;
    double sub_total = 0.0;
    for (std::size_t i = 0; i < m.comps.size(); i += stride) {
        sub.push_back(m.comps[i]);
        sub_total += m.comps[i].weight;
    }
    double glo = lo, ghi = hi;
    double vlo = 0.0, vhi = 1.0;
    for (int i = 0; i < kGuessSteps; ++i) {
        double mid = 0.5 * (glo + ghi);
        double v = weightedCdfSum(sub, mid) / sub_total;
        if (v >= q) {
            ghi = mid;
            vhi = v;
        } else {
            glo = mid;
            vlo = v;
        }
    }

    double x = 0.5 * (glo + ghi);
    double v = cdf.exact(x);
    double slope = (vhi - vlo) / (ghi - glo);
    const double tol = 1e-9 * std::max(1.0, std::abs(x));
    for (int i = 0; i < kSecantSteps && std::abs(v - q) >= 2.0 * m.err;
         ++i) {
        if (!(slope > 0.0 && std::isfinite(slope)))
            break;
        double next = x - (v - q) / slope;
        // A step outside the certified bracket would learn nothing.
        if (!(next > std::max(lo, cdf.below()) &&
              next < std::min(hi, cdf.above())))
            break;
        if (std::abs(next - x) < 0.25 * tol) {
            x = next;
            break;
        }
        double vn = cdf.exact(next);
        slope = (vn - v) / (next - x);
        x = next;
        v = vn;
    }

    double d = 0.5 * tol;
    if (slope > 0.0)
        d = std::max(d, 4.0 * m.err / slope);
    if (cdf.below() < x - d)
        cdf.exact(x - d);
    if (cdf.above() > x + d)
        cdf.exact(x + d);
}

} // namespace

double
shiftedGammaMixtureCdf(const std::vector<ShiftedGamma> &mix, double x)
{
    return mixtureCdf(prepareMixture(mix), x);
}

double
shiftedGammaMixtureQuantile(const std::vector<ShiftedGamma> &mix,
                            double q)
{
    const PreparedMixture m = prepareMixture(mix);
    if (!(q >= 0.0 && q <= 1.0))
        throw std::invalid_argument(
            "shiftedGammaMixtureQuantile: q outside [0, 1]");
    double lo = m.lo, hi = m.hi;
    if (q == 0.0 || hi <= lo)
        return lo;

    // A plain bisection whose "CDF >= q" tests are answered by
    // CertifiedCdf: the same steps, stop rule and result as evaluating
    // every test, at a fraction of the evaluations.
    CertifiedCdf cdf(m, q);
    certifyNearRoot(cdf, m, q, lo, hi);
    // Expand the bracket until it contains the quantile (gamma tails
    // reach CDF = 1 in floating point once erfc underflows).
    double width = hi - lo;
    for (int i = 0; i < 200 && !cdf.atOrAbove(hi); ++i)
        hi += width;
    for (int it = 0;
         it < 200 && hi - lo > 1e-9 * std::max(1.0, std::abs(hi));
         ++it) {
        double mid = 0.5 * (lo + hi);
        if (cdf.atOrAbove(mid))
            hi = mid;
        else
            lo = mid;
    }
    return 0.5 * (lo + hi);
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
