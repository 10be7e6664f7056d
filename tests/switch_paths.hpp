/**
 * @file
 * Test-only views of flow paths in the forms the tests compare:
 * `UpDownEcmpPaths` output as visited switch sequences, and a
 * `FlowProblem` path as its whole link sequence.
 */
#ifndef RFC_TESTS_SWITCH_PATHS_HPP
#define RFC_TESTS_SWITCH_PATHS_HPP

#include <cstdint>
#include <vector>

#include "flow/paths.hpp"
#include "flow/solver.hpp"

namespace rfc {

/** The candidate paths from leaf @p src to leaf @p dst, src first. */
inline std::vector<Path>
switchPaths(const UpDownEcmpPaths &paths, int src, int dst)
{
    LeafPairPaths set;
    paths.paths(src, dst, set);
    std::vector<Path> out;
    for (std::size_t i = 0; i < set.size(); ++i)
        out.emplace_back(set.switches(i), set.switches(i) + set.hops() + 1);
    return out;
}

/** Whole link sequence of demand @p d's path @p q, ends included. */
inline std::vector<std::int32_t>
linkSequence(const FlowProblem &p, std::size_t d, std::size_t q)
{
    std::vector<std::int32_t> out;
    p.forEachLink(d, q, [&](std::int32_t l) { out.push_back(l); });
    return out;
}

} // namespace rfc

#endif // RFC_TESTS_SWITCH_PATHS_HPP
