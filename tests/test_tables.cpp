/**
 * @file
 * Tests for forwarding-table metering and k-shortest-path routing
 * tables.
 *
 * The golden cases pin every streamed table row and the table
 * counters of five networks to files in tests/golden/tables_*.txt.
 * Re-recording (only when a change of the table contents is intended):
 * RFC_GOLDEN_RECORD=1 ./test_tables
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/rfc.hpp"
#include "graph/random_regular.hpp"
#include "routing/ksp_tables.hpp"
#include "routing/tables.hpp"
#include "routing/updown.hpp"

#ifndef RFC_GOLDEN_DIR
#define RFC_GOLDEN_DIR "tests/golden"
#endif

namespace rfc {
namespace {

/**
 * One line per field: the table counters plus an FNV-1a digest of every
 * row's port sets in (switch, leaf) order, each set fed as its size
 * followed by its ports ascending.
 */
std::map<std::string, std::string>
tableFields(const FoldedClos &fc, const UpDownOracle &oracle)
{
    const ForwardingTables tables(fc, oracle);
    std::uint64_t h = 1469598103934665603ULL;
    auto feed = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    std::vector<std::uint64_t> ports;
    forEachTableRow(fc, oracle, [&](int, const std::uint64_t *masks,
                                    int words) {
        for (int d = 0; d < fc.numLeaves(); ++d) {
            ports.clear();
            for (int w = 0; w < words; ++w)
                for (std::uint64_t bits = masks[d * words + w]; bits;
                     bits &= bits - 1)
                    ports.push_back(static_cast<std::uint64_t>(
                        w * 64 + __builtin_ctzll(bits)));
            feed(ports.size());
            for (std::uint64_t p : ports)
                feed(p);
        }
    });
    std::ostringstream digest;
    digest << std::hex << h;
    return {{"switches", std::to_string(fc.numSwitches())},
            {"leaves", std::to_string(fc.numLeaves())},
            {"populated_entries", std::to_string(tables.populatedEntries())},
            {"total_ports", std::to_string(tables.totalPorts())},
            {"unique_sets", std::to_string(tables.uniqueSets())},
            {"memory_bytes", std::to_string(tables.memoryBytes())},
            {"ports_fnv1a", digest.str()}};
}

void
checkTablesGolden(const std::string &name, const FoldedClos &fc,
                  const UpDownOracle &oracle)
{
    const auto got = tableFields(fc, oracle);
    const std::string path =
        std::string(RFC_GOLDEN_DIR) + "/tables_" + name + ".txt";
    const char *env = std::getenv("RFC_GOLDEN_RECORD");
    if (env != nullptr && env[0] != '\0' && env[0] != '0') {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        for (const auto &[key, value] : got)
            out << key << " " << value << "\n";
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path
                           << " (record with RFC_GOLDEN_RECORD=1)";
    std::map<std::string, std::string> want;
    std::string key, value;
    while (in >> key >> value)
        want[key] = value;
    EXPECT_EQ(got, want) << name;
}

TEST(ForwardingTables, ContentsMatchGoldens)
{
    {
        const FoldedClos fc = buildCft(8, 3);
        checkTablesGolden("cft8_3", fc, UpDownOracle(fc));
    }
    {
        // CFT(12,4) is the scaled-down proxy of the Figure 10 tables.
        const FoldedClos fc = buildCft(12, 4);
        checkTablesGolden("cft12_4", fc, UpDownOracle(fc));
    }
    {
        // Top switches with 72 ports: port masks wider than one word.
        const FoldedClos fc = buildCft(72, 2);
        checkTablesGolden("cft72_2", fc, UpDownOracle(fc));
    }

    Rng rng(1222);
    const auto built = buildRfc(12, 3, 72, rng);
    ASSERT_TRUE(built.routable);
    const FoldedClos &rfc = built.topology;
    checkTablesGolden("rfc12_3", rfc, UpDownOracle(rfc));

    // The same RFC under a dead-link overlay that cuts some leaf pairs.
    LinkFaultState overlay(rfc);
    Rng fault_rng(1223);
    const auto order = randomLinkOrder(rfc, fault_rng);
    for (std::size_t i = 0; i < order.size() / 4; ++i)
        overlay.setLink(order[i].lower, order[i].upper, true);
    UpDownOracle faulted;
    faulted.build(rfc, &overlay);
    ASSERT_LT(faulted.routablePairFraction(), 1.0);
    checkTablesGolden("rfc12_3_faults", rfc, faulted);
}

TEST(ForwardingTables, AgreeWithOracleOnCft)
{
    // CFT(72, 2): top switches have 72 children, so their down entries
    // span both words of a 2-word nextHops mask.
    for (const int radix : {8, 72}) {
        const auto fc = buildCft(radix, radix == 8 ? 3 : 2);
        UpDownOracle oracle(fc);
        ForwardingTables tables(fc, oracle);
        std::vector<int> choices;
        int wide = 0;
        for (int sw = 0; sw < fc.numSwitches(); sw += 3) {
            auto n_up = static_cast<int>(fc.up(sw).size());
            for (int d = 0; d < fc.numLeaves(); d += 5) {
                if (sw == d)
                    continue;
                const auto entry = tables.ports(sw, d);
                int need = oracle.minUps(sw, d);
                ASSERT_GE(need, 0);
                int base = 0;
                if (need == 0) {
                    oracle.downChoices(fc, sw, d, choices);
                    base = n_up;
                    wide += fc.down(sw).size() > 64;
                } else {
                    oracle.upChoices(fc, sw, d, choices);
                    wide += fc.up(sw).size() > 64;
                }
                ASSERT_EQ(entry.size(), choices.size())
                    << "R=" << radix << " sw=" << sw << " d=" << d;
                for (std::size_t i = 0; i < entry.size(); ++i)
                    EXPECT_EQ(entry[i], base + choices[i])
                        << "R=" << radix << " sw=" << sw << " d=" << d;
            }
        }
        EXPECT_EQ(wide > 0, radix == 72);
    }
}

TEST(ForwardingTables, PopulationMatchesOracleReachability)
{
    Rng rng(3);
    auto built = buildRfc(8, 3, 40, rng);
    ASSERT_TRUE(built.routable);
    const auto &fc = built.topology;
    UpDownOracle oracle(fc);
    ForwardingTables tables(fc, oracle);
    // An entry is populated iff the oracle can reach the destination
    // from that switch.  Leaf rows are always fully populated on a
    // routable RFC; upper-level switches may legitimately miss leaves
    // (a packet never visits a non-ancestor on its down phase).
    long long populated = 0;
    for (int sw = 0; sw < fc.numSwitches(); ++sw) {
        for (int d = 0; d < fc.numLeaves(); ++d) {
            if (sw == d)
                continue;
            bool has = !tables.ports(sw, d).empty();
            EXPECT_EQ(has, oracle.minUps(sw, d) >= 0)
                << "sw=" << sw << " d=" << d;
            populated += has;
            if (sw < fc.numLeaves())
                EXPECT_TRUE(has);
        }
    }
    EXPECT_EQ(tables.populatedEntries(), populated);
    EXPECT_GT(tables.totalPorts(), tables.populatedEntries());
    EXPECT_GT(tables.memoryBytes(), 0);
}

TEST(ForwardingTables, FaultedPairsHaveEmptyEntries)
{
    Rng rng(7);
    auto built = buildRfc(8, 2, 12, rng);
    auto fc = built.topology;
    // Disconnect leaf 0 from the network.
    std::vector<int> ups(fc.up(0).begin(), fc.up(0).end());
    for (int p : ups)
        fc.removeLink(0, p);
    UpDownOracle oracle(fc);
    ForwardingTables tables(fc, oracle);
    EXPECT_TRUE(tables.ports(1, 0).empty());
}

TEST(ForwardingTables, CftEcmpWidthMatchesStructure)
{
    // In a CFT, a leaf routing to a remote subtree has all R/2 up
    // ports as ECMP choices.
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    ForwardingTables tables(fc, oracle);
    int far_leaf = fc.numLeaves() - 1;
    EXPECT_EQ(tables.ports(0, far_leaf).size(), 4u);
}

TEST(KspRoutes, TablesCoverConnectedGraph)
{
    Rng rng(9);
    Graph g = randomRegularGraph(24, 4, rng);
    KspRoutes routes(g, 4);
    EXPECT_EQ(routes.connectedPairs(), 24LL * 23);
    EXPECT_GT(routes.maxHops(), 0);
    EXPECT_GT(routes.totalHops(), 0);
}

TEST(KspRoutes, PathsStartAndEndCorrectly)
{
    Rng rng(11);
    Graph g = randomRegularGraph(16, 4, rng);
    KspRoutes routes(g, 3);
    for (int s = 0; s < 16; ++s) {
        for (int d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            for (const auto &p : routes.paths(s, d)) {
                ASSERT_GE(p.size(), 2u);
                EXPECT_EQ(p.front(), s);
                EXPECT_EQ(p.back(), d);
                for (std::size_t i = 0; i + 1 < p.size(); ++i)
                    EXPECT_TRUE(g.hasEdge(p[i], p[i + 1]));
            }
        }
    }
}

TEST(KspRoutes, PickPathIsFromTable)
{
    Rng rng(13);
    Graph g = randomRegularGraph(12, 3, rng);
    KspRoutes routes(g, 2);
    for (int trial = 0; trial < 50; ++trial) {
        const Path *p = routes.pickPath(0, 7, rng);
        ASSERT_NE(p, nullptr);
        const auto &slot = routes.paths(0, 7);
        bool found = false;
        for (const auto &q : slot)
            found |= &q == p;
        EXPECT_TRUE(found);
    }
}

TEST(KspRoutes, DisconnectedPairHasNoPath)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(2, 3);
    KspRoutes routes(g, 3);
    EXPECT_TRUE(routes.paths(0, 2).empty());
    Rng rng(1);
    EXPECT_EQ(routes.pickPath(0, 2, rng), nullptr);
    EXPECT_LT(routes.connectedPairs(), 12);
}

} // namespace
} // namespace rfc
