#include "graph/bisection.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rfc {

namespace {
constexpr double kLn2 = 0.6931471805599453;
} // namespace

double
bollobasIsoperimetric(double degree)
{
    return degree / 2.0 - std::sqrt(degree * kLn2);
}

double
bollobasBisectionRrn(double switches, double degree)
{
    return switches / 2.0 * bollobasIsoperimetric(degree);
}

double
normalizedBisectionRrn(double degree, double hostsPerSwitch)
{
    return bollobasIsoperimetric(degree) / hostsPerSwitch;
}

double
normalizedBisectionRfc(double radix, int levels)
{
    // BW / (T/2 * (l-1)) with BW the Bollobas RFC bound, T = N1*R/2.
    return 1.0 - std::sqrt(2.0 * kLn2 / ((levels - 1) * radix));
}

namespace {

/** Cut size of partition @p side (side[v] in {0,1}). */
std::size_t
cutSize(const Graph &g, const std::vector<char> &side)
{
    std::size_t cut = 0;
    for (int u = 0; u < g.numVertices(); ++u)
        for (int v : g.neighbors(u))
            if (u < v && side[u] != side[v])
                ++cut;
    return cut;
}

} // namespace

std::size_t
empiricalBisection(const Graph &g, int restarts, Rng &rng)
{
    std::vector<char> side;
    return empiricalBisectionParts(g, restarts, rng, side);
}

std::size_t
empiricalBisectionParts(const Graph &g, int restarts, Rng &rng,
                        std::vector<char> &side_out)
{
    int n = g.numVertices();
    side_out.assign(static_cast<std::size_t>(std::max(n, 0)), 0);
    if (n < 2)
        return 0;

    std::size_t best = g.numEdges() + 1;
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);

    for (int r = 0; r < restarts; ++r) {
        rng.shuffle(order);
        std::vector<char> side(n);
        for (int i = 0; i < n; ++i)
            side[order[i]] = static_cast<char>(i < n / 2 ? 0 : 1);

        // Gain of moving v to the other side (positive = fewer cut edges).
        auto gain = [&](int v) {
            int d_same = 0, d_other = 0;
            for (int w : g.neighbors(v))
                (side[w] == side[v] ? d_same : d_other)++;
            return d_other - d_same;
        };

        // Greedy pairwise swaps until no improving swap is sampled.
        bool improved = true;
        while (improved) {
            improved = false;
            rng.shuffle(order);
            for (int u : order) {
                // Find the best partner on the other side among a sample.
                int gu = gain(u);
                if (gu <= 0)
                    continue;
                for (int tries = 0; tries < 32; ++tries) {
                    int v = static_cast<int>(rng.uniform(n));
                    if (side[v] == side[u])
                        continue;
                    int gv = gain(v);
                    int link = g.hasEdge(u, v) ? 2 : 0;
                    if (gu + gv - link > 0) {
                        side[u] = static_cast<char>(1 - side[u]);
                        side[v] = static_cast<char>(1 - side[v]);
                        improved = true;
                        break;
                    }
                }
            }
        }
        std::size_t cut = cutSize(g, side);
        if (cut < best) {
            best = cut;
            side_out = side;
        }
    }
    return best;
}

} // namespace rfc
