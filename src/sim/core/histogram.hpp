/**
 * @file
 * Power-of-two-bucket latency histogram of the VCT core.
 *
 * O(1) insert; percentile estimates delegate to the shared type-7
 * binned quantile in util/stats, interpolating between order
 * statistics under an evenly-spread-within-bucket model.  Tail
 * percentiles are what distinguish a loaded RFC from a loaded CFT long
 * before the mean moves.
 */
#ifndef RFC_SIM_CORE_HISTOGRAM_HPP
#define RFC_SIM_CORE_HISTOGRAM_HPP

namespace rfc {

class LatencyHistogram
{
  public:
    /** Record one latency sample (cycles; values <= 0 land in bucket 0). */
    void add(long long cycles);

    long long count() const { return total_; }

    /** Smallest / largest sample recorded (exact, not binned); 0 empty. */
    long long minSample() const { return total_ == 0 ? 0 : min_; }
    long long maxSample() const { return total_ == 0 ? 0 : max_; }

    /** Exact sum of all samples (0.0 when empty). */
    double sum() const { return sum_; }

    /**
     * Approximate value at quantile q in [0, 1] (type-7 over the
     * buckets [0,1), [1,2), [2,4), ... [2^46,2^47)); 0.0 when empty.
     */
    double quantile(double q) const;

  private:
    static constexpr int kBuckets = 48;
    long long bucket_[kBuckets] = {};
    long long total_ = 0;
    long long min_ = 0;
    long long max_ = 0;
    double sum_ = 0.0;
};

} // namespace rfc

#endif // RFC_SIM_CORE_HISTOGRAM_HPP
