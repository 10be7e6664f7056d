#include "clos/rfc.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "graph/random_bipartite.hpp"
#include "routing/updown.hpp"

namespace rfc {

FoldedClos
buildRfcUnchecked(int radix, int levels, int n1, Rng &rng)
{
    if (radix < 2 || radix % 2 != 0)
        throw std::invalid_argument("buildRfc: radix must be even >= 2");
    if (levels < 2)
        throw std::invalid_argument("buildRfc: need at least 2 levels");
    if (n1 < 2 || n1 % 2 != 0)
        throw std::invalid_argument("buildRfc: n1 must be even >= 2");
    if (n1 < radix)
        throw std::invalid_argument("buildRfc: n1 must be >= radix (top "
                                    "switches have R down links)");

    const int m = radix / 2;
    std::vector<int> level_count(levels, n1);
    level_count[levels - 1] = n1 / 2;

    FoldedClos fc(level_count, radix, m,
                  "RFC(R=" + std::to_string(radix) +
                      ",l=" + std::to_string(levels) +
                      ",N1=" + std::to_string(n1) + ")");

    // Stream each level's random pairing straight into the CSR
    // adjacency: the bipartite generator's scratch dies with the level,
    // so peak memory is one level of pairing state plus the topology.
    for (int lv = 1; lv < levels; ++lv) {
        const int lower_n = fc.switchesAtLevel(lv);
        const int upper_n = fc.switchesAtLevel(lv + 1);
        const int upper_deg = (lv + 1 == levels) ? radix : m;
        const int lo = fc.levelOffset(lv);
        const int uo = fc.levelOffset(lv + 1);
        randomBipartiteEdges(lower_n, m, upper_n, upper_deg, rng,
                             [&](int u, int v) {
                                 fc.addLink(lo + u, uo + v);
                             });
    }
    return fc;
}

RfcBuildResult
buildRfc(int radix, int levels, int n1, Rng &rng, int max_attempts)
{
    RfcBuildResult result;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        result.topology = buildRfcUnchecked(radix, levels, n1, rng);
        result.attempts = attempt;
        UpDownOracle oracle(result.topology);
        if (oracle.routable()) {
            result.routable = true;
            return result;
        }
    }
    result.routable = false;
    return result;
}

long long
rfcMaxLeavesLL(int radix, int levels)
{
    const double m = radix / 2.0;
    const double target = std::pow(m, 2.0 * (levels - 1));
    // Solve N1 ln N1 = target by binary search.
    double lo = 2.0, hi = 2.0;
    while (hi * std::log(hi) < target)
        hi *= 2.0;
    for (int it = 0; it < 200; ++it) {
        double mid = (lo + hi) / 2.0;
        if (mid * std::log(mid) < target)
            lo = mid;
        else
            hi = mid;
    }
    long long n1 = static_cast<long long>(lo);
    if (n1 % 2)
        --n1;
    return std::max(n1, 2LL);
}

int
rfcMaxLeaves(int radix, int levels)
{
    long long n1 = rfcMaxLeavesLL(radix, levels);
    // High radix/level combinations (e.g. R=54, l=5 -> N1 ~ 1.2e10)
    // overflow int; the old double->int cast was undefined behavior.
    if (n1 > std::numeric_limits<int>::max())
        throw std::overflow_error(
            "rfcMaxLeaves: threshold exceeds int range; use "
            "rfcMaxLeavesLL");
    return static_cast<int>(n1);
}

RfcThresholdPrediction
rfcThresholdPrediction(int radix, int levels, int n1)
{
    double m = radix / 2.0;
    // ln C(N1, 2) = ln(N1 (N1-1) / 2).
    double log_pairs = std::log(static_cast<double>(n1)) +
                       std::log(static_cast<double>(n1 - 1)) -
                       std::log(2.0);
    double x = std::pow(m, 2.0 * (levels - 1)) / (n1 / 2.0) - log_pairs;
    return {x, std::exp(-std::exp(-x))};
}

} // namespace rfc
