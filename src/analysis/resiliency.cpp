#include "analysis/resiliency.hpp"

#include "clos/faults.hpp"
#include "graph/algorithms.hpp"
#include "routing/updown.hpp"

namespace rfc {

double
disconnectionFraction(const Graph &g, Rng &rng)
{
    auto edges = g.edges();
    rng.shuffle(edges);
    const auto e = static_cast<long long>(edges.size());

    // Add edges in reverse removal order; the first moment the graph
    // becomes connected at suffix position j means removing the first
    // j links disconnects it (and j-1 does not).
    UnionFind uf(g.numVertices());
    for (long long i = e; i-- > 0;) {
        uf.unite(edges[i].first, edges[i].second);
        if (uf.components() == 1) {
            // Suffix starting at i is connected: removing i links keeps
            // the graph connected, removing i+1 (dropping edges[i] too)
            // disconnects it... unless i = 0 and the full graph is the
            // first connected suffix, in which case one removal suffices
            // only when it actually cuts.  The scan direction guarantees
            // the minimal connected suffix, so removals-to-disconnect
            // is exactly i + 1.
            return static_cast<double>(i + 1) / static_cast<double>(e);
        }
    }
    return 0.0;  // never connected
}

double
updownToleranceFraction(const FoldedClos &fc, Rng &rng)
{
    auto order = randomLinkOrder(fc, rng);
    const auto e = static_cast<long long>(order.size());

    // Monotone predicate: routable(k) = up/down survives after removing
    // the first k links.  Binary search the largest k with routable(k).
    auto routable_after = [&](long long k) {
        FoldedClos cut = withLinksRemoved(fc, order,
                                          static_cast<std::size_t>(k));
        UpDownOracle oracle(cut);
        return oracle.routable();
    };

    if (!routable_after(0))
        return 0.0;
    long long lo = 0, hi = e;
    while (lo < hi) {
        long long mid = (lo + hi + 1) / 2;
        if (routable_after(mid))
            lo = mid;
        else
            hi = mid - 1;
    }
    return static_cast<double>(lo) / static_cast<double>(e);
}

} // namespace rfc
