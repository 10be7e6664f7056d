/**
 * @file
 * Statistics: the streaming accumulator that aggregates repeated
 * experiment trials, the binned quantile behind the latency
 * histograms, the queue engine's shifted-gamma mixture, and the
 * chi-square helpers of the traffic property checks.
 */
#ifndef RFC_UTIL_STATS_HPP
#define RFC_UTIL_STATS_HPP

#include <cstddef>
#include <vector>

namespace rfc {

class ThreadPool;

/**
 * Welford streaming accumulator for mean / variance / confidence interval.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return mean_; }

    /** Unbiased sample variance (0 for fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Half-width of the normal-approximation 95% confidence interval. */
    double ci95() const;

    double min() const { return min_; }
    double max() const { return max_; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Type-7 quantile of binned (histogram) data.  @p counts[i] samples
 * fall in the half-open interval [edges[i], edges[i+1]) and are
 * treated as evenly spread inside it: the j-th of c samples in a
 * bucket (0-based) sits at lo + (j + 0.5) / c * (hi - lo).  The
 * quantile then interpolates linearly between consecutive order
 * statistics at rank h = (N - 1) q (the "type 7" definition of
 * Hyndman & Fan, the R/NumPy default).
 * Requires edges.size() == counts.size() + 1 with strictly increasing
 * edges; throws std::invalid_argument on malformed input, an empty
 * histogram, or q outside [0, 1].  Merging two histograms by summing
 * counts yields the same quantile at every q as binning the concatenated
 * samples.
 */
double binnedQuantile(const std::vector<long long> &counts,
                      const std::vector<double> &edges, double q);

/**
 * One component of a shifted-gamma mixture: a deterministic @p shift
 * plus a gamma-distributed excess matched to (@p mean, @p variance)
 * by moments, carrying @p weight > 0 units of mixture mass.  A
 * component with mean <= 0 or variance <= 0 degenerates to a point
 * mass at shift + max(mean, 0).  This is the queue-model engine's
 * representation of one path's end-to-end latency: shift = zero-load
 * latency, mean/variance = summed per-hop waiting moments (gamma
 * chosen because waiting-time sums are nonnegative and right-skewed).
 */
struct ShiftedGamma
{
    double shift = 0.0;
    double mean = 0.0;
    double variance = 0.0;
    double weight = 0.0;
};

/**
 * CDF of a shifted-gamma mixture at @p x (weights normalized to the
 * mixture total).  Gamma CDFs are evaluated with the Wilson-Hilferty
 * cube-root normal approximation (the same machinery as
 * chiSquareCritical; relative error a few percent for shape < 1,
 * well inside the queue model's own accuracy).  This is bit for bit
 * the function shiftedGammaMixtureQuantile inverts: both run one pass
 * over the same hoisted per-component constants, summing the
 * components' terms in input order.  Throws std::invalid_argument on
 * an empty mixture, a weight <= 0, or a non-finite field.
 */
double shiftedGammaMixtureCdf(const std::vector<ShiftedGamma> &mix,
                              double x);

/**
 * Inverse of shiftedGammaMixtureCdf: the smallest x with CDF(x) >= q,
 * to ~1e-9 relative precision.  For 0 < q the returned x is a root in
 * this sense: with tol = 1e-9 max(1, |x|), CDF(x - tol) < q <=
 * CDF(x + tol).  q = 0 returns the lowest point of any component's
 * support.
 *
 * It is computed by safeguarded Newton on one pass that returns the
 * CDF and its density (one cbrt, erfc and exp per live component).
 * The search keeps a bracket from the lowest shift to the highest
 * mean + 12 sd, grown by its width until a pass shows CDF >= q at its
 * upper end, and takes a bisection step wherever Newton would leave
 * it (point masses, a zero or non-finite density).  It starts from
 * the same search run on a strided subsample of ~4k components.  A
 * fig10-sized quantile takes about 4 full passes, where a plain
 * bisection takes ~34.  Deterministic (pure function of the component
 * list and q).  Throws like shiftedGammaMixtureCdf, plus on q outside
 * [0, 1].
 */
double shiftedGammaMixtureQuantile(const std::vector<ShiftedGamma> &mix,
                                   double q);

/** Several quantiles of one mixture and the CDF passes they took. */
struct MixtureQuantiles
{
    std::vector<double> values;  //!< one per requested level, in order
    /**
     * Full-mixture passes, summed over the levels: a pure function of
     * the mixture and the levels.  The subsample passes of the initial
     * guess are not counted.
     */
    std::size_t cdf_passes = 0;
};

/**
 * shiftedGammaMixtureQuantile at every level of @p qs, validating and
 * preparing the mixture once.  The levels run as tasks of @p pool
 * when one is given; each value is the same double either way.
 */
MixtureQuantiles shiftedGammaMixtureQuantiles(
    const std::vector<ShiftedGamma> &mix, const std::vector<double> &qs,
    ThreadPool *pool = nullptr);

/**
 * Pearson chi-square statistic sum((O_i - E_i)^2 / E_i) for observed
 * counts against expected counts (same length; zero-expected cells
 * with zero observations contribute nothing, otherwise infinity).
 * Used by the traffic-uniformity property checks.
 */
double chiSquareStat(const std::vector<long long> &observed,
                     const std::vector<double> &expected);

/** chiSquareStat against a uniform expectation over all cells. */
double chiSquareUniformStat(const std::vector<long long> &observed);

/**
 * Approximate upper critical value of the chi-square distribution with
 * @p df degrees of freedom at upper-tail probability @p alpha, via the
 * Wilson-Hilferty cube-root normal approximation (accurate to a few
 * percent for df >= 3, which is ample for a randomized-test threshold).
 */
double chiSquareCritical(int df, double alpha);

} // namespace rfc

#endif // RFC_UTIL_STATS_HPP
