#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#ifdef RFC_HAVE_LIBMVEC
#include <emmintrin.h>
#endif

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

/**
 * Components per block of both CDF passes: the staging arrays of one
 * block stay in L1.  Even, so a 2-lane pass pads an odd tail in place.
 */
constexpr std::size_t kBlock = 256;

#ifdef RFC_HAVE_LIBMVEC
// glibc libmvec's 2-lane SSE variants (x86_64, glibc >= 2.35); CMake
// defines RFC_HAVE_LIBMVEC only when a test program links them.
extern "C" __m128d _ZGVbN2v_cbrt(__m128d);
extern "C" __m128d _ZGVbN2v_erfc(__m128d);

/** cbrt of @p v[0, n) in place, n even. */
void
cbrtPairs(double *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 2)
        _mm_storeu_pd(v + i, _ZGVbN2v_cbrt(_mm_loadu_pd(v + i)));
}

/** erfc of @p v[0, n) in place, n even. */
void
erfcPairs(double *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 2)
        _mm_storeu_pd(v + i, _ZGVbN2v_erfc(_mm_loadu_pd(v + i)));
}
#else
void
cbrtPairs(double *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] = std::cbrt(v[i]);
}

void
erfcPairs(double *v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] = std::erfc(v[i]);
}
#endif

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
    /** Worst-case rounding errors E and E_b (see prepareMixture). */
    double err = 0.0;
    double err_bounded = 0.0;

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
    double spread = 0.0;  // sum of weight * (1 + inv_sqrt_h)
    bool bounded = std::isfinite(m.total);
    for (const auto &c : mix) {
        const bool point = c.mean <= 0.0 || c.variance <= 0.0;
        const double at = c.shift + (c.mean > 0.0 ? c.mean : 0.0);
        double inv_mean = 0.0, omh = 0.0, inv_sqrt_h = 0.0;
        if (!point) {
            // Gamma(k, theta) with k theta = mean: (X / mean)^(1/3) is
            // approximately Normal(1 - h, h) with h = 1 / (9 k).
            double k = c.mean * c.mean / c.variance;
            double h = 1.0 / (9.0 * k);
            inv_mean = 1.0 / c.mean;
            omh = 1.0 - h;
            inv_sqrt_h = 1.0 / std::sqrt(h);
            // h = 0 or h = inf (extreme mean/variance ratios) can turn
            // z into NaN; such a mixture gets no certificates.
            bounded = bounded && h > 0.0 && std::isfinite(h);
        }
        const double origin = point ? at : c.shift;
        m.lo = std::min(m.lo, origin);
        m.hi = std::max(m.hi, at + (point ? 0.0
                                          : 12.0 * std::sqrt(c.variance)));
        spread += c.weight * (1.0 + inv_sqrt_h);
        m.push(origin, inv_mean, omh, inv_sqrt_h, c.weight, point);
    }
    // Rounding-error bounds of the two passes against the same formula
    // in exact arithmetic on the stored constants and the rounded
    // t = x - origin, a function nondecreasing in x.  With eps = 2^-52,
    // for libm's cbrt within C ulps and erfc within R:
    //  - z = (cbrt(t inv_mean) - omh) inv_sqrt_h is off by at most
    //    (C + 0.2) eps inv_sqrt_h cbrt(.) + eps |z|; since inv_sqrt_h
    //    cbrt(.) <= |z| + inv_sqrt_h and phi(z) <= 0.4, phi(z) |z| <=
    //    0.25, the component CDF moves by <= eps ((C + 0.2) / 4 + 0.25
    //    + 0.4 (C + 0.2) inv_sqrt_h);
    //  - -z / sqrt(2), erfc and the weight product add <= (R + 0.8) eps
    //    per unit weight;
    //  - summing n nonnegative terms, in any order and in one or two
    //    accumulators, adds <= n eps / 2 of the total and the division
    //    by the total eps / 2.
    // The exact pass calls scalar libm, taken as C = 4 and R = 8: that
    // totals eps (n / 2 + 1 + sum w (10.1 + 1.7 inv_sqrt_h) / total),
    // and E below exceeds it by over 60 eps, which also covers the
    // rounding of q -/+ 2E in CertifiedCdf.  The bounded pass calls
    // libmvec, which glibc documents to 4 ulps, or scalar libm; E_b
    // allows twice that, C = 8 and R = 16, for eps (n / 2 + 1 + sum w
    // (19.1 + 3.3 inv_sqrt_h) / total), and exceeds it by as much.
    constexpr double eps = std::numeric_limits<double>::epsilon();
    constexpr double inf = std::numeric_limits<double>::infinity();
    const double n = static_cast<double>(m.size());
    m.err = bounded ? eps * (2.0 * n + 64.0 + 16.0 * spread / m.total)
                    : inf;
    m.err_bounded =
        bounded ? eps * (2.0 * n + 64.0 + 32.0 * spread / m.total) : inf;
    return m;
}

/**
 * Every @p stride-th component of @p m, from the first: the mixture
 * the initial guess bisects.  Only its constants are set.
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
    return sub;
}

/**
 * Exact pass: the sum of weight * component CDF at @p x (not yet
 * divided by the total).  Staged per block - every live cbrt, then
 * every erfc, then the block's terms added in component order - so
 * each term and the summation order are those of the plain loop, and
 * so is every bit of the sum.  A term that is not live (a gamma at or
 * before its origin, a point mass above x) is +0, which leaves a
 * nonnegative sum unchanged.
 */
double
exactCdfSum(const PreparedMixture &m, double x)
{
    double term[kBlock], arg[kBlock];
    unsigned live[kBlock];
    double sum = 0.0;
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
            const double z = (arg[j] - omh[i]) * inv_sqrt_h[i];
            term[i] = weight[i] * normalCdf(z);
        }
        for (std::size_t i = 0; i < len; ++i)
            sum += term[i];
    }
    return sum;
}

/**
 * Bounded pass: the same sum within E_b of the exact-arithmetic CDF
 * times the total.  Each block runs branch-free over every component
 * through cbrtPairs and erfcPairs and selects the live terms after;
 * the point masses' zero constants keep their dead lanes finite.
 */
double
boundedCdfSum(const PreparedMixture &m, double x)
{
    double a[kBlock], e[kBlock];
    double acc[2] = {0.0, 0.0};
    for (std::size_t b = 0; b < m.size(); b += kBlock) {
        const std::size_t len = std::min(kBlock, m.size() - b);
        const std::size_t even = len + (len & 1);
        const double *origin = m.origin.data() + b;
        const double *inv_mean = m.inv_mean.data() + b;
        const double *omh = m.omh.data() + b;
        const double *inv_sqrt_h = m.inv_sqrt_h.data() + b;
        const double *weight = m.weight.data() + b;
        const unsigned char *point = m.point.data() + b;
        for (std::size_t i = 0; i < len; ++i)
            a[i] = (x - origin[i]) * inv_mean[i];
        if (len & 1)
            a[len] = 0.0;  // the padding lane of an odd tail
        cbrtPairs(a, even);
        for (std::size_t i = 0; i < len; ++i)
            e[i] = -((a[i] - omh[i]) * inv_sqrt_h[i]) / std::sqrt(2.0);
        if (len & 1)
            e[len] = 0.0;
        erfcPairs(e, even);
        for (std::size_t i = 0; i < len; ++i) {
            const double t = x - origin[i];
            const double gamma = t > 0.0 ? weight[i] * (0.5 * e[i]) : 0.0;
            const double atom = x >= origin[i] ? weight[i] : 0.0;
            acc[i & 1] += point[i] ? atom : gamma;
        }
    }
    return acc[0] + acc[1];
}

/**
 * The decision "exact CDF(x) >= q", answered from certificates where
 * possible.  For the exact-arithmetic CDF F (monotone in x), an exact
 * value v < q - 2E proves F(x) < q - E, and a bounded value below
 * q - (E + E_b) proves the same; then every x' <= x has F(x') < q - E
 * and an exact value below q.  Symmetrically above.  Only points
 * strictly between the two certificates get an exact pass, so each
 * answer equals the one a fresh exact pass would give, bit for bit.
 */
class CertifiedCdf
{
  public:
    CertifiedCdf(const PreparedMixture &m, double q)
        : m_(m), q_(q), exact_band_(2.0 * m.err),
          bounded_band_(m.err + m.err_bounded)
    {
    }

    /** One exact pass at @p x, recorded as a certificate if it is one. */
    double
    exact(double x)
    {
        ++exact_passes;
        return certify(x, exactCdfSum(m_, x) / m_.total, exact_band_);
    }

    /** One bounded pass at @p x, likewise. */
    double
    bounded(double x)
    {
        ++bounded_passes;
        return certify(x, boundedCdfSum(m_, x) / m_.total, bounded_band_);
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
    double boundedBand() const { return bounded_band_; }

    std::size_t exact_passes = 0;
    std::size_t bounded_passes = 0;

  private:
    double
    certify(double x, double v, double band)
    {
        if (v < q_ - band)
            below_ = std::max(below_, x);
        else if (v >= q_ + band)
            above_ = std::min(above_, x);
        return v;
    }

    const PreparedMixture &m_;
    double q_;
    double exact_band_, bounded_band_;
    double below_ = -std::numeric_limits<double>::infinity();
    double above_ = std::numeric_limits<double>::infinity();
};

/**
 * Place bounded passes just either side of the q-quantile so that the
 * bisection's certificates decide nearly all of its steps.  A guess
 * from bisecting the strided subsample @p sub seeds secant steps on
 * the full mixture; two probes at twice the uncertifiable band
 * (E + E_b) / slope (at least half the bisection tolerance) then pin
 * the root from both sides.  Nothing here decides the result: a poor
 * guess only costs passes.
 */
void
locateRoot(CertifiedCdf &cdf, const PreparedMixture &sub, double q,
           double lo, double hi)
{
    constexpr int kGuessSteps = 16;
    constexpr int kSecantSteps = 6;

    double glo = lo, ghi = hi;
    double vlo = 0.0, vhi = 1.0;
    for (int i = 0; i < kGuessSteps; ++i) {
        double mid = 0.5 * (glo + ghi);
        double v = boundedCdfSum(sub, mid) / sub.total;
        if (v >= q) {
            ghi = mid;
            vhi = v;
        } else {
            glo = mid;
            vlo = v;
        }
    }

    const double band = cdf.boundedBand();
    double x = 0.5 * (glo + ghi);
    double v = cdf.bounded(x);
    double slope = (vhi - vlo) / (ghi - glo);
    const double tol = 1e-9 * std::max(1.0, std::abs(x));
    for (int i = 0; i < kSecantSteps && std::abs(v - q) >= band; ++i) {
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
        double vn = cdf.bounded(next);
        slope = (vn - v) / (next - x);
        x = next;
        v = vn;
    }

    double d = 0.5 * tol;
    if (slope > 0.0)
        d = std::max(d, 2.0 * band / slope);
    if (cdf.below() < x - d)
        cdf.bounded(x - d);
    if (cdf.above() > x + d)
        cdf.bounded(x + d);
}

/**
 * The q-quantile of @p m by certified replay; @p sub is the guess's
 * subsample, used only when @p m gets certificates.  Records the
 * passes it took in @p passes.
 */
double
certifiedQuantile(const PreparedMixture &m, const PreparedMixture &sub,
                  double q, MixtureQuantiles &passes)
{
    double lo = m.lo, hi = m.hi;
    if (q == 0.0 || hi <= lo)
        return lo;

    // A plain bisection whose "CDF >= q" tests are answered by
    // CertifiedCdf: the same steps, stop rule and result as evaluating
    // every test, at a fraction of the exact passes.
    CertifiedCdf cdf(m, q);
    if (std::isfinite(m.err))
        locateRoot(cdf, sub, q, lo, hi);
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
    passes.exact_passes = cdf.exact_passes;
    passes.bounded_passes = cdf.bounded_passes;
    return 0.5 * (lo + hi);
}

} // namespace

double
shiftedGammaMixtureCdf(const std::vector<ShiftedGamma> &mix, double x)
{
    const PreparedMixture m = prepareMixture(mix);
    return exactCdfSum(m, x) / m.total;
}

BoundedCdf
shiftedGammaMixtureBoundedCdf(const std::vector<ShiftedGamma> &mix,
                              double x)
{
    const PreparedMixture m = prepareMixture(mix);
    return {boundedCdfSum(m, x) / m.total, m.err + m.err_bounded};
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
    // The guess bisects ~4k components; both passes' certificates
    // need a finite E.
    constexpr std::size_t kSubsample = 4096;
    const PreparedMixture sub =
        std::isfinite(m.err)
            ? subsample(m, std::max<std::size_t>(8, m.size() / kSubsample))
            : PreparedMixture();
    MixtureQuantiles out;
    out.values.resize(qs.size());
    std::vector<MixtureQuantiles> passes(qs.size());
    parallelFor(pool, qs.size(), [&](std::size_t i) {
        out.values[i] = certifiedQuantile(m, sub, qs[i], passes[i]);
    });
    for (const MixtureQuantiles &p : passes) {
        out.exact_passes += p.exact_passes;
        out.bounded_passes += p.bounded_passes;
    }
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
