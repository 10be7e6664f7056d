#include "check/invariants.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "clos/serialize.hpp"
#include "routing/tables.hpp"
#include "util/bitset.hpp"

namespace rfc {

namespace {

std::string
linkStr(int lower, int upper)
{
    std::ostringstream os;
    os << lower << "-" << upper;
    return os.str();
}

} // namespace

CheckResult
checkLevelStructure(const FoldedClos &fc)
{
    const int n = fc.numSwitches();
    for (int s = 0; s < n; ++s) {
        int lv = fc.levelOf(s);
        for (int p : fc.up(s)) {
            if (p < 0 || p >= n)
                return CheckResult::fail("switch " + std::to_string(s) +
                                         ": up link to out-of-range id " +
                                         std::to_string(p));
            if (fc.levelOf(p) != lv + 1)
                return CheckResult::fail(
                    "link " + linkStr(s, p) + ": spans levels " +
                    std::to_string(lv) + "->" +
                    std::to_string(fc.levelOf(p)) + " (want +1)");
            auto up_mult = std::count(fc.up(s).begin(), fc.up(s).end(), p);
            auto down_mult =
                std::count(fc.down(p).begin(), fc.down(p).end(), s);
            if (up_mult != down_mult)
                return CheckResult::fail(
                    "link " + linkStr(s, p) + ": up multiplicity " +
                    std::to_string(up_mult) + " != down multiplicity " +
                    std::to_string(down_mult));
        }
        for (int c : fc.down(s)) {
            if (c < 0 || c >= n)
                return CheckResult::fail("switch " + std::to_string(s) +
                                         ": down link to out-of-range id " +
                                         std::to_string(c));
            if (fc.levelOf(c) != lv - 1)
                return CheckResult::fail(
                    "link " + linkStr(c, s) + ": spans levels " +
                    std::to_string(fc.levelOf(c)) + "->" +
                    std::to_string(lv) + " (want +1)");
        }
    }
    return CheckResult::pass();
}

CheckResult
checkBipartiteRegular(const FoldedClos &fc)
{
    CheckResult structure = checkLevelStructure(fc);
    if (!structure.ok)
        return structure;

    const int half = fc.radix() / 2;
    for (int s = 0; s < fc.numSwitches(); ++s) {
        int lv = fc.levelOf(s);
        auto ups = static_cast<int>(fc.up(s).size());
        auto downs = static_cast<int>(fc.down(s).size());
        if (lv == fc.levels()) {
            if (ups != 0)
                return CheckResult::fail(
                    "top switch " + std::to_string(s) + " has " +
                    std::to_string(ups) + " up links (want 0)");
            if (downs != fc.radix())
                return CheckResult::fail(
                    "top switch " + std::to_string(s) + " has " +
                    std::to_string(downs) + " down links (want R=" +
                    std::to_string(fc.radix()) + ")");
        } else {
            if (ups != half)
                return CheckResult::fail(
                    "level-" + std::to_string(lv) + " switch " +
                    std::to_string(s) + " has " + std::to_string(ups) +
                    " up links (want R/2=" + std::to_string(half) + ")");
            int down_links = lv == 1 ? fc.terminalsPerLeaf() : downs;
            if (down_links != half)
                return CheckResult::fail(
                    "level-" + std::to_string(lv) + " switch " +
                    std::to_string(s) + " has " +
                    std::to_string(down_links) +
                    " down links (want R/2=" + std::to_string(half) + ")");
        }
        // Simple wiring: no duplicate parent (Listing 2 generates
        // simple biregular bipartite graphs; expansion preserves this).
        for (int p : fc.up(s))
            if (fc.countLink(s, p) != 1)
                return CheckResult::fail(
                    "duplicate link " + linkStr(s, p) + " (multiplicity " +
                    std::to_string(fc.countLink(s, p)) + ")");
    }
    return CheckResult::pass();
}

CheckResult
sameTopology(const FoldedClos &a, const FoldedClos &b)
{
    if (a.levels() != b.levels())
        return CheckResult::fail("level count differs: " +
                                 std::to_string(a.levels()) + " vs " +
                                 std::to_string(b.levels()));
    for (int lv = 1; lv <= a.levels(); ++lv)
        if (a.switchesAtLevel(lv) != b.switchesAtLevel(lv))
            return CheckResult::fail(
                "level " + std::to_string(lv) + " size differs: " +
                std::to_string(a.switchesAtLevel(lv)) + " vs " +
                std::to_string(b.switchesAtLevel(lv)));
    if (a.radix() != b.radix())
        return CheckResult::fail("radix differs");
    if (a.terminalsPerLeaf() != b.terminalsPerLeaf())
        return CheckResult::fail("terminals-per-leaf differs");
    if (a.name() != b.name())
        return CheckResult::fail("name differs: '" + a.name() + "' vs '" +
                                 b.name() + "'");
    for (int s = 0; s < a.numSwitches(); ++s) {
        std::vector<int> ua(a.up(s).begin(), a.up(s).end());
        std::vector<int> ub(b.up(s).begin(), b.up(s).end());
        std::sort(ua.begin(), ua.end());
        std::sort(ub.begin(), ub.end());
        if (ua != ub)
            return CheckResult::fail("switch " + std::to_string(s) +
                                     ": up adjacency differs");
    }
    return CheckResult::pass();
}

CheckResult
checkRoundTrip(const FoldedClos &fc)
{
    std::stringstream ss;
    saveTopology(fc, ss);
    FoldedClos back;
    try {
        back = loadTopology(ss);
    } catch (const std::exception &e) {
        return CheckResult::fail(std::string("round trip: load threw: ") +
                                 e.what());
    }
    CheckResult same = sameTopology(fc, back);
    if (!same.ok)
        return CheckResult::fail("round trip: " + same.message);
    return CheckResult::pass();
}

CheckResult
checkCommonAncestorCoverage(const FoldedClos &fc,
                            const UpDownOracle &oracle)
{
    const int n = fc.numSwitches();
    const int leaves = fc.numLeaves();

    // Independent descendant sets, bottom-up over down links.
    std::vector<DynBitset> below(
        n, DynBitset(static_cast<std::size_t>(leaves)));
    for (int leaf = 0; leaf < leaves; ++leaf)
        below[leaf].set(static_cast<std::size_t>(leaf));
    for (int lv = 2; lv <= fc.levels(); ++lv) {
        int lo = fc.levelOffset(lv);
        int hi = lo + fc.switchesAtLevel(lv);
        for (int s = lo; s < hi; ++s)
            for (int c : fc.down(s))
                below[s] |= below[c];
    }

    // For each leaf: BFS over up links finds every ancestor; the union
    // of their descendant sets is exactly the set of leaves reachable
    // by some up*down* walk.
    std::vector<char> seen(n);
    std::vector<int> frontier, next;
    for (int leaf = 0; leaf < leaves; ++leaf) {
        DynBitset covered(static_cast<std::size_t>(leaves));
        std::fill(seen.begin(), seen.end(), 0);
        frontier.assign(1, leaf);
        seen[leaf] = 1;
        covered |= below[leaf];
        while (!frontier.empty()) {
            next.clear();
            for (int s : frontier) {
                for (int p : fc.up(s)) {
                    if (!seen[p]) {
                        seen[p] = 1;
                        covered |= below[p];
                        next.push_back(p);
                    }
                }
            }
            frontier.swap(next);
        }
        if (!(covered == oracle.reach(leaf, fc.levels() - 1)))
            return CheckResult::fail(
                "leaf " + std::to_string(leaf) +
                ": oracle full-ascent reach set differs from independent "
                "common-ancestor computation");
        bool oracle_all = oracle.reach(leaf, fc.levels() - 1).all();
        if (oracle_all != covered.all())
            return CheckResult::fail("leaf " + std::to_string(leaf) +
                                     ": coverage disagreement");
    }

    // routable() must equal all-leaves full coverage.
    bool all_covered = true;
    for (int leaf = 0; leaf < leaves && all_covered; ++leaf)
        all_covered = oracle.reach(leaf, fc.levels() - 1).all();
    if (oracle.routable() != all_covered)
        return CheckResult::fail(
            "routable() disagrees with per-leaf coverage");
    return CheckResult::pass();
}

CheckResult
checkUpDownConsistency(const FoldedClos &fc, const UpDownOracle &oracle,
                       int sample_pairs, Rng &rng)
{
    const int leaves = fc.numLeaves();
    const int max_dist = 2 * (fc.levels() - 1);
    if (leaves < 2)
        return CheckResult::pass();

    std::vector<int> choices;
    auto check_pair = [&](int a, int b) -> CheckResult {
        std::string pair = "leaf pair (" + std::to_string(a) + ", " +
                           std::to_string(b) + ")";
        int d_ab = oracle.leafDistance(a, b);
        int d_ba = oracle.leafDistance(b, a);
        if (d_ab != d_ba)
            return CheckResult::fail(
                pair + ": asymmetric distance " + std::to_string(d_ab) +
                " vs " + std::to_string(d_ba));
        if (d_ab < 0)
            return CheckResult::pass();  // consistently unreachable
        if (d_ab % 2 != 0)
            return CheckResult::fail(pair + ": odd up/down distance " +
                                     std::to_string(d_ab));
        if (d_ab > max_dist)
            return CheckResult::fail(
                pair + ": distance " + std::to_string(d_ab) +
                " exceeds 2(l-1) = " + std::to_string(max_dist));
        if (a == b)
            return CheckResult::pass();

        // Greedy walk: ascend minUps() hops, each decreasing the
        // remaining ascent by exactly one, then descend to b.
        int s = a;
        int hops = 0;
        int need = oracle.minUps(s, b);
        while (need > 0) {
            oracle.upChoices(fc, s, b, choices);
            if (choices.empty())
                return CheckResult::fail(
                    pair + ": no up choice at switch " +
                    std::to_string(s) + " with " + std::to_string(need) +
                    " ups to go");
            int idx = choices[rng.uniform(choices.size())];
            if (idx < 0 || idx >= static_cast<int>(fc.up(s).size()))
                return CheckResult::fail(pair + ": up choice index " +
                                         std::to_string(idx) +
                                         " out of range at switch " +
                                         std::to_string(s));
            int parent = fc.up(s)[idx];
            int parent_need = oracle.minUps(parent, b);
            if (parent_need != need - 1)
                return CheckResult::fail(
                    pair + ": non-minimal up hop " + std::to_string(s) +
                    "->" + std::to_string(parent) + " (need " +
                    std::to_string(need) + " -> " +
                    std::to_string(parent_need) + ")");
            s = parent;
            need = parent_need;
            if (++hops > max_dist)
                return CheckResult::fail(pair + ": up phase exceeded " +
                                         std::to_string(max_dist) +
                                         " hops");
        }
        while (s != b) {
            oracle.downChoices(fc, s, b, choices);
            if (choices.empty())
                return CheckResult::fail(
                    pair + ": no down choice at switch " +
                    std::to_string(s) + " though dest is below");
            int idx = choices[rng.uniform(choices.size())];
            if (idx < 0 || idx >= static_cast<int>(fc.down(s).size()))
                return CheckResult::fail(pair + ": down choice index " +
                                         std::to_string(idx) +
                                         " out of range at switch " +
                                         std::to_string(s));
            int child = fc.down(s)[idx];
            if (fc.levelOf(child) != fc.levelOf(s) - 1)
                return CheckResult::fail(pair +
                                         ": down hop does not descend");
            if (oracle.minUps(child, b) != 0)
                return CheckResult::fail(
                    pair + ": down hop to " + std::to_string(child) +
                    " loses the destination");
            s = child;
            if (++hops > max_dist)
                return CheckResult::fail(pair + ": walk exceeded " +
                                         std::to_string(max_dist) +
                                         " hops (possible cycle)");
        }
        if (hops != d_ab)
            return CheckResult::fail(
                pair + ": realized path length " + std::to_string(hops) +
                " != leafDistance " + std::to_string(d_ab));
        return CheckResult::pass();
    };

    long long all_pairs =
        static_cast<long long>(leaves) * (leaves - 1) / 2;
    if (all_pairs <= sample_pairs) {
        for (int a = 0; a < leaves; ++a)
            for (int b = a + 1; b < leaves; ++b)
                if (CheckResult r = check_pair(a, b); !r.ok)
                    return r;
    } else {
        for (int i = 0; i < sample_pairs; ++i) {
            int a = static_cast<int>(
                rng.uniform(static_cast<std::uint64_t>(leaves)));
            int b = static_cast<int>(
                rng.uniform(static_cast<std::uint64_t>(leaves - 1)));
            if (b >= a)
                ++b;
            if (CheckResult r = check_pair(a, b); !r.ok)
                return r;
        }
    }
    return CheckResult::pass();
}

CheckResult
checkForwardingTables(const FoldedClos &fc, const UpDownOracle &oracle)
{
    CheckResult result = CheckResult::pass();
    std::vector<int> choices;
    std::vector<std::uint16_t> expect, got;
    forEachTableRow(fc, oracle, [&](int sw, const std::uint64_t *masks,
                                    int words) {
        if (!result.ok)
            return;
        const auto n_up = static_cast<int>(fc.up(sw).size());
        for (int d = 0; d < fc.numLeaves(); ++d) {
            expect.clear();
            if (sw != d) {
                int need = oracle.minUps(sw, d);
                if (need == 0) {
                    oracle.downChoices(fc, sw, d, choices);
                    for (int idx : choices)
                        expect.push_back(
                            static_cast<std::uint16_t>(n_up + idx));
                } else if (need > 0) {
                    oracle.upChoices(fc, sw, d, choices);
                    for (int idx : choices)
                        expect.push_back(static_cast<std::uint16_t>(idx));
                }
            }
            got.clear();
            const std::uint64_t *m =
                masks + static_cast<std::size_t>(d) *
                            static_cast<std::size_t>(words);
            for (int w = 0; w < words; ++w)
                for (std::uint64_t bits = m[w]; bits; bits &= bits - 1)
                    got.push_back(static_cast<std::uint16_t>(
                        w * 64 + __builtin_ctzll(bits)));
            if (got != expect) {
                result = CheckResult::fail(
                    "switch " + std::to_string(sw) + " dest leaf " +
                    std::to_string(d) + ": table row ports (" +
                    std::to_string(got.size()) +
                    ") differ from oracle minimal choices (" +
                    std::to_string(expect.size()) + ")");
                return;
            }
        }
    });
    return result;
}

CheckResult
checkAllStructural(const FoldedClos &fc)
{
    if (CheckResult r = checkBipartiteRegular(fc); !r.ok)
        return r;
    return checkRoundTrip(fc);
}

} // namespace rfc
