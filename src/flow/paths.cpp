#include "flow/paths.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rfc {

UpDownEcmpPaths::UpDownEcmpPaths(const FoldedClos &fc,
                                 const UpDownOracle &oracle, int max_paths,
                                 std::uint64_t seed)
    : fc_(fc), oracle_(oracle), max_paths_(max_paths), seed_(seed)
{
    if (max_paths < 1)
        throw std::invalid_argument(
            "UpDownEcmpPaths: max_paths must be >= 1, got " +
            std::to_string(max_paths));
}

bool
UpDownEcmpPaths::enumerate(int s, int ups, int dst, Path &prefix,
                           std::vector<std::vector<int>> &choices,
                           std::vector<Path> &out) const
{
    prefix.push_back(s);
    bool ok = true;
    if (s == dst && ups == 0) {
        if (static_cast<int>(out.size()) >= max_paths_)
            ok = false;
        else
            out.push_back(prefix);
    } else {
        // Deeper nodes use later slots, so this list outlives the loop.
        std::vector<int> &here = choices[prefix.size() - 1];
        if (ups > 0)
            oracle_.upChoices(fc_, s, dst, here);
        else
            oracle_.downChoices(fc_, s, dst, here);
        const auto &next = ups > 0 ? fc_.up(s) : fc_.down(s);
        for (int k : here) {
            if (!enumerate(next[k], ups > 0 ? ups - 1 : 0, dst, prefix,
                           choices, out)) {
                ok = false;
                break;
            }
        }
    }
    prefix.pop_back();
    return ok;
}

void
UpDownEcmpPaths::samplePath(int src, int ups, int dst, Rng &rng,
                            std::vector<int> &choices, Path &out) const
{
    out.clear();
    int s = src;
    out.push_back(s);
    for (int u = ups; u > 0; --u) {
        oracle_.upChoices(fc_, s, dst, choices);
        s = fc_.up(s)[choices[rng.uniform(choices.size())]];
        out.push_back(s);
    }
    while (s != dst) {
        oracle_.downChoices(fc_, s, dst, choices);
        s = fc_.down(s)[choices[rng.uniform(choices.size())]];
        out.push_back(s);
    }
}

void
UpDownEcmpPaths::paths(int src, int dst, std::vector<Path> &out) const
{
    out.clear();
    if (src == dst) {
        out.push_back({src});
        return;
    }
    int ups = oracle_.minUps(src, dst);
    if (ups < 0)
        return;  // no up/down route (faulted network)

    // A minimal path is 2 * ups hops long (every hop changes level).
    const auto depth = static_cast<std::size_t>(2 * ups + 1);
    std::vector<std::vector<int>> choices(depth);
    Path prefix;
    prefix.reserve(depth);
    // Every minimal up choice at src starts at least one minimal path,
    // so when they alone outnumber the cap enumeration can only
    // overflow: go straight to sampling.
    oracle_.upChoices(fc_, src, dst, choices[0]);
    if (static_cast<int>(choices[0].size()) <= max_paths_ &&
        enumerate(src, ups, dst, prefix, choices, out))
        return;  // complete ECMP set fits the cap

    // Cap exceeded: deterministic seeded sample of distinct paths.
    out.clear();
    Rng rng(deriveSeed(seed_, static_cast<std::uint64_t>(src),
                       static_cast<std::uint64_t>(dst)));
    Path p;
    int misses = 0;
    while (static_cast<int>(out.size()) < max_paths_ &&
           misses < 4 * max_paths_) {
        samplePath(src, ups, dst, rng, choices[0], p);
        if (std::find(out.begin(), out.end(), p) == out.end())
            out.push_back(p);
        else
            ++misses;
    }
    std::sort(out.begin(), out.end());
}

} // namespace rfc
