/**
 * @file
 * Test-only view of `UpDownEcmpPaths` output as visited switch
 * sequences, the form the path tests compare.
 */
#ifndef RFC_TESTS_SWITCH_PATHS_HPP
#define RFC_TESTS_SWITCH_PATHS_HPP

#include <vector>

#include "flow/paths.hpp"

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

} // namespace rfc

#endif // RFC_TESTS_SWITCH_PATHS_HPP
