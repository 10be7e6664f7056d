#include "clos/oft.hpp"

#include <limits>
#include <stdexcept>

#include "clos/projective.hpp"

namespace rfc {

namespace {

FoldedClos
buildOft2(const ProjectivePlane &pg)
{
    const int n = pg.size();
    const int q = pg.order();
    // Leaves: two copies of the points; roots: the lines.
    FoldedClos fc({2 * n, n}, 2 * (q + 1), q + 1,
                  "OFT(q=" + std::to_string(q) + ",l=2)");
    for (int copy = 0; copy < 2; ++copy) {
        for (int p = 0; p < n; ++p) {
            int leaf = copy * n + p;
            for (int line : pg.linesThroughPoint(p))
                fc.addLink(leaf, fc.levelOffset(2) + line);
        }
    }
    return fc;
}

FoldedClos
buildOft3(const ProjectivePlane &pg)
{
    const int n = pg.size();
    const int q = pg.order();
    // Switch ids are int: 2*n^2 wraps already at q ~ 1290, so guard the
    // level sizes in 64-bit before narrowing.
    if (2LL * n * n > std::numeric_limits<int>::max())
        throw std::invalid_argument(
            "buildOft: level size 2*n^2 exceeds int range for q=" +
            std::to_string(q));
    // Leaves and level-2 switches: (side, subtree, point/line);
    // roots: (line, line) grid.
    FoldedClos fc({2 * n * n, 2 * n * n, n * n}, 2 * (q + 1), q + 1,
                  "OFT(q=" + std::to_string(q) + ",l=3)");

    auto leaf_id = [&](int side, int t, int p) {
        return (side * n + t) * n + p;
    };
    auto l2_id = [&](int side, int t, int line) {
        return fc.levelOffset(2) + (side * n + t) * n + line;
    };
    auto root_id = [&](int a, int b) {
        return fc.levelOffset(3) + a * n + b;
    };

    for (int side = 0; side < 2; ++side) {
        for (int t = 0; t < n; ++t) {
            // Within the subtree: projective point/line incidence.
            for (int p = 0; p < n; ++p)
                for (int line : pg.linesThroughPoint(p))
                    fc.addLink(leaf_id(side, t, p), l2_id(side, t, line));
            // Up links: subtree index t acts as a point; level-2 switch
            // (side, t, L) meets roots (L, L') with L' through point t
            // (side 0), mirrored as (L', L) on side 1.
            for (int line = 0; line < n; ++line) {
                for (int lp : pg.linesThroughPoint(t)) {
                    int root = side == 0 ? root_id(line, lp)
                                         : root_id(lp, line);
                    fc.addLink(l2_id(side, t, line), root);
                }
            }
        }
    }
    return fc;
}

} // namespace

FoldedClos
buildOft(int q, int levels)
{
    if (!isPrimePower(q))
        throw std::invalid_argument("buildOft: q must be a prime power");
    ProjectivePlane pg(q);
    if (levels == 2)
        return buildOft2(pg);
    if (levels == 3)
        return buildOft3(pg);
    throw std::invalid_argument("buildOft: levels must be 2 or 3");
}

long long
oftTerminals(int q, int levels)
{
    long long n = static_cast<long long>(q) * q + q + 1;
    long long t = 2 * (q + 1);
    for (int i = 1; i < levels; ++i)
        t *= n;
    return t;
}

} // namespace rfc
