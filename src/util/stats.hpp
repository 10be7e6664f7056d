/**
 * @file
 * Streaming statistics used to aggregate repeated experiment trials.
 */
#ifndef RFC_UTIL_STATS_HPP
#define RFC_UTIL_STATS_HPP

#include <cstddef>
#include <utility>
#include <vector>

namespace rfc {

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
 * The @p q quantile (0 <= q <= 1) of @p samples by linear
 * interpolation between order statistics (the "type 7" definition of
 * Hyndman & Fan, the R/NumPy default): q = 0 is the minimum, q = 1
 * the maximum, q = 0.5 the median.  Takes its input by value (the
 * selection reorders it).  Throws std::invalid_argument on an empty
 * sample set or q outside [0, 1].  Used for the per-demand throughput
 * distributions of the flow engine (worst percentiles, not just the
 * worst demand).
 */
double quantile(std::vector<double> samples, double q);

/**
 * Several quantiles of one sample set: quantile(samples, qs[i]) for
 * every i, sharing a single sort of the data.
 */
std::vector<double> quantiles(std::vector<double> samples,
                              const std::vector<double> &qs);

/**
 * Type-7 quantile of binned (histogram) data.  @p counts[i] samples
 * fall in the half-open interval [edges[i], edges[i+1]) and are
 * treated as evenly spread inside it: the j-th of c samples in a
 * bucket (0-based) sits at lo + (j + 0.5) / c * (hi - lo).  The
 * quantile then interpolates between consecutive order statistics at
 * rank h = (N - 1) q, exactly like quantile() does on raw samples.
 * Requires edges.size() == counts.size() + 1 with strictly increasing
 * edges; throws std::invalid_argument on malformed input, an empty
 * histogram, or q outside [0, 1].  Merging two histograms by summing
 * counts yields the same quantiles as binning the concatenated
 * samples, which is what makes per-shard latency histograms safely
 * combinable.
 */
double binnedQuantile(const std::vector<long long> &counts,
                      const std::vector<double> &edges, double q);

/**
 * Quantile of weighted samples: each (value, weight) pair contributes
 * weight > 0 units of probability mass.  The empirical CDF places each
 * sample's mass at its midpoint (the Hazen convention, which reduces
 * binnedQuantile's evenly-spread rule to a single point per sample)
 * and the quantile interpolates linearly between consecutive
 * midpoints, clamping to the extreme values outside them.  For equal
 * weights this is the Hazen variant of the type-7 estimator used
 * elsewhere in this header.  Zero-weight samples are ignored.  Throws
 * std::invalid_argument on an empty/all-zero-weight sample set, a
 * negative weight, or q outside [0, 1].  Used by the queue-model
 * engine for path-latency distributions, where each candidate path
 * carries its ECMP flow share as weight.
 */
double weightedQuantile(std::vector<std::pair<double, double>> samples,
                        double q);

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
 * the function shiftedGammaMixtureQuantile inverts: both evaluate the
 * same hoisted per-component constants.  Throws
 * std::invalid_argument on an empty mixture, a weight <= 0, or a
 * non-finite field.
 */
double shiftedGammaMixtureCdf(const std::vector<ShiftedGamma> &mix,
                              double x);

/**
 * Inverse of shiftedGammaMixtureCdf: the smallest x with CDF(x) >= q,
 * to ~1e-9 relative precision.  Defined as a bracketed bisection on
 * shiftedGammaMixtureCdf (bracket from the lowest shift to the highest
 * mean + 12 sd, doubled until it holds the quantile; halved until its
 * width is at most 1e-9 max(1, |hi|); the midpoint is returned).
 *
 * It is computed by certified replay: each bisection step "CDF(mid)
 * >= q" is answered from certificates where possible.  A documented
 * worst-case bound E on the CDF's rounding error (summation over n
 * components, per-component cbrt/erfc error, the final division)
 * turns every evaluation v at x with v < q - 2E into a proof that
 * every x' <= x evaluates below q, and every v >= q + 2E into the
 * mirror proof above x; only steps between the two certificates are
 * evaluated.  A short search places evaluations just either side of
 * the root first, so a fig10-sized mixture needs ~9 evaluations
 * instead of ~34, and the result is bit-identical to evaluating every
 * step.  Deterministic (pure function of the component list).  Throws
 * like shiftedGammaMixtureCdf, plus on q outside [0, 1].
 */
double shiftedGammaMixtureQuantile(const std::vector<ShiftedGamma> &mix,
                                   double q);

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
