#include "sim/core/histogram.hpp"

#include <algorithm>
#include <vector>

#include "util/stats.hpp"

namespace rfc {

namespace {

/** Bucket edges 0, 1, 2, 4, ..., 2^47: bucket b >= 1 is [2^(b-1), 2^b). */
const std::vector<double> &
bucketEdges()
{
    static const std::vector<double> edges = [] {
        std::vector<double> e;
        e.reserve(49);
        e.push_back(0.0);
        for (int b = 0; b < 48; ++b)
            e.push_back(static_cast<double>(1ULL << b));
        return e;
    }();
    return edges;
}

} // namespace

void
LatencyHistogram::add(long long cycles)
{
    int b = cycles <= 0
                ? 0
                : std::min(kBuckets - 1,
                           64 - __builtin_clzll(
                                    static_cast<unsigned long long>(
                                        cycles)));
    ++bucket_[b];
    const long long v = std::max(0LL, cycles);
    if (total_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += static_cast<double>(v);
    ++total_;
}

double
LatencyHistogram::quantile(double q) const
{
    if (total_ == 0)
        return 0.0;
    return binnedQuantile(
        std::vector<long long>(bucket_, bucket_ + kBuckets),
        bucketEdges(), q);
}

} // namespace rfc
