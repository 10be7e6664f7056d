/**
 * @file
 * Tests for topology save/load and DOT export.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/invariants.hpp"
#include "clos/expansion.hpp"
#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/oft.hpp"
#include "clos/rfc.hpp"
#include "clos/serialize.hpp"
#include "routing/updown.hpp"

namespace rfc {
namespace {

void
expectSameTopology(const FoldedClos &a, const FoldedClos &b)
{
    ASSERT_EQ(a.levels(), b.levels());
    ASSERT_EQ(a.numSwitches(), b.numSwitches());
    EXPECT_EQ(a.radix(), b.radix());
    EXPECT_EQ(a.terminalsPerLeaf(), b.terminalsPerLeaf());
    EXPECT_EQ(a.name(), b.name());
    for (int s = 0; s < a.numSwitches(); ++s) {
        std::vector<int> ua(a.up(s).begin(), a.up(s).end());
        std::vector<int> ub(b.up(s).begin(), b.up(s).end());
        std::sort(ua.begin(), ua.end());
        std::sort(ub.begin(), ub.end());
        EXPECT_EQ(ua, ub) << "switch " << s;
    }
}

TEST(Serialize, RoundTripCft)
{
    auto fc = buildCft(8, 3);
    std::stringstream ss;
    saveTopology(fc, ss);
    auto back = loadTopology(ss);
    expectSameTopology(fc, back);
}

TEST(Serialize, RoundTripRfc)
{
    Rng rng(5);
    auto fc = buildRfcUnchecked(12, 3, 40, rng);
    std::stringstream ss;
    saveTopology(fc, ss);
    auto back = loadTopology(ss);
    expectSameTopology(fc, back);
    // A loaded random topology routes identically.
    UpDownOracle a(fc), b(back);
    EXPECT_EQ(a.routable(), b.routable());
}

TEST(Serialize, RoundTripExpandedRfc)
{
    // Expansion changes level sizes and rewires links; the file format
    // must capture the result exactly (checked via the reusable
    // round-trip invariant rather than a field-by-field list).
    Rng rng(6);
    auto fc = buildRfcUnchecked(8, 3, 16, rng);
    ExpansionPlan plan(fc, 2, rng);
    auto r = checkRoundTrip(plan.finalTopology());
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(Serialize, RoundTripFaultedRfc)
{
    // Fault injection leaves irregular degrees; serialization must not
    // assume biregularity.
    Rng rng(7);
    auto fc = buildRfcUnchecked(8, 2, 20, rng);
    removeRandomLinks(fc, 9, rng);
    auto r = checkRoundTrip(fc);
    EXPECT_TRUE(r.ok) << r.message;

    // And the loaded copy routes identically to the faulted original.
    std::stringstream ss;
    saveTopology(fc, ss);
    auto back = loadTopology(ss);
    ASSERT_TRUE(sameTopology(fc, back).ok);
    UpDownOracle a(fc), b(back);
    EXPECT_EQ(a.routable(), b.routable());
    EXPECT_DOUBLE_EQ(a.routablePairFraction(), b.routablePairFraction());
}

TEST(Serialize, SameTopologyAgreesWithManualComparison)
{
    auto fc = buildCft(8, 2);
    std::stringstream ss;
    saveTopology(fc, ss);
    auto back = loadTopology(ss);
    expectSameTopology(fc, back);
    EXPECT_TRUE(sameTopology(fc, back).ok);
}

TEST(Serialize, RoundTripOft)
{
    auto fc = buildOft(3, 2);
    std::stringstream ss;
    saveTopology(fc, ss);
    expectSameTopology(fc, loadTopology(ss));
}

TEST(Serialize, CommentsAndBlankLinesIgnored)
{
    auto fc = buildCft(4, 2);
    std::stringstream ss;
    saveTopology(fc, ss);
    std::string text = "# header comment\n\n" + ss.str();
    std::stringstream annotated(text);
    expectSameTopology(fc, loadTopology(annotated));
}

TEST(Serialize, RejectsBadVersion)
{
    std::stringstream ss("rfc-topology 99\n");
    EXPECT_THROW(loadTopology(ss), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedInput)
{
    auto fc = buildCft(4, 2);
    std::stringstream ss;
    saveTopology(fc, ss);
    std::string text = ss.str();
    std::stringstream cut(text.substr(0, text.size() / 2));
    EXPECT_THROW(loadTopology(cut), std::runtime_error);
}

TEST(Serialize, RejectsOutOfRangeLink)
{
    std::stringstream ss(
        "rfc-topology 1\nname x\nradix 4\nterminals-per-leaf 2\n"
        "levels 2 2 1\nlinks 1\n0 99\nend\n");
    EXPECT_THROW(loadTopology(ss), std::runtime_error);
}

/** loadTopology's error message on @p text ("" if it parses). */
std::string
loadError(const std::string &text)
{
    std::stringstream ss(text);
    try {
        loadTopology(ss);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

/** A valid CFT(4,2) file with line @p line (1-based) replaced. */
std::string
cft42With(int line, const std::string &replacement)
{
    std::stringstream in;
    saveTopology(buildCft(4, 2), in);
    std::string out, l;
    for (int n = 1; std::getline(in, l); ++n)
        out += (n == line ? replacement : l) + "\n";
    return out;
}

TEST(Serialize, ValidFileWithTrailingCommentsParses)
{
    // Comments and trailing blanks after a line's fields are fine.
    EXPECT_EQ(loadError(cft42With(3, "radix 4   # nominal")), "");
    EXPECT_EQ(loadError(cft42With(6, "links 8 \t")), "");
}

TEST(Serialize, RejectsTrailingTokens)
{
    // Every line's fields must be all it holds.
    std::string e = loadError(cft42With(3, "radix 4 junk"));
    EXPECT_NE(e.find("line 3 'radix 4 junk'"), std::string::npos) << e;
    EXPECT_NE(e.find("trailing 'junk'"), std::string::npos) << e;
    e = loadError(cft42With(6, "links 0 trailing"));
    EXPECT_NE(e.find("line 6"), std::string::npos) << e;
    EXPECT_NE(e.find("trailing"), std::string::npos) << e;
    e = loadError(cft42With(7, "0 2 5"));
    EXPECT_NE(e.find("line 7 '0 2 5'"), std::string::npos) << e;
    e = loadError(cft42With(1, "rfc-topology 1 x"));
    EXPECT_NE(e.find("line 1"), std::string::npos) << e;
    e = loadError(cft42With(15, "end now"));
    EXPECT_NE(e.find("line 15"), std::string::npos) << e;
}

TEST(Serialize, RejectsFractionalNumbers)
{
    // A stream read of "2.5" into an int stops at the dot and yields 2.
    const std::string e =
        loadError(cft42With(4, "terminals-per-leaf 2.5"));
    EXPECT_NE(e.find("line 4"), std::string::npos) << e;
    EXPECT_NE(e.find("'2.5' is not a whole number"), std::string::npos)
        << e;
    EXPECT_NE(loadError(cft42With(3, "radix 4x")).find("line 3"),
              std::string::npos);
    EXPECT_NE(loadError(cft42With(3, "radix 99999999999")).find("outside"),
              std::string::npos);
}

TEST(Serialize, RejectsExtraLevelCounts)
{
    // The level list holds exactly as many counts as it declares.
    const std::string e = loadError(cft42With(5, "levels 2 4 2 7"));
    EXPECT_NE(e.find("line 5 'levels 2 4 2 7'"), std::string::npos) << e;
    EXPECT_NE(e.find("trailing '7'"), std::string::npos) << e;
    EXPECT_NE(loadError(cft42With(5, "levels 3 4 2")).find("missing"),
              std::string::npos);
    EXPECT_NE(loadError(cft42With(5, "levels 2 4 0")).find("line 5"),
              std::string::npos);
}

TEST(Serialize, RejectsLevelSumPastIntMax)
{
    // The sum would overflow FoldedClos's int switch ids.
    const std::string e =
        loadError(cft42With(5, "levels 2 2000000000 2000000000"));
    EXPECT_NE(e.find("line 5"), std::string::npos) << e;
    EXPECT_NE(e.find("sum past"), std::string::npos) << e;
    EXPECT_THROW(FoldedClos({2000000000, 2000000000}, 4, 2, "x"),
                 std::invalid_argument);
}

TEST(Serialize, DotOutputContainsAllSwitches)
{
    auto fc = buildCft(4, 2);
    std::stringstream ss;
    writeDot(fc, ss);
    std::string dot = ss.str();
    EXPECT_NE(dot.find("graph"), std::string::npos);
    for (int s = 0; s < fc.numSwitches(); ++s)
        EXPECT_NE(dot.find("s" + std::to_string(s) + " ["),
                  std::string::npos);
    // One edge line per wire.
    std::size_t count = 0, pos = 0;
    while ((pos = dot.find(" -- ", pos)) != std::string::npos) {
        ++count;
        pos += 4;
    }
    EXPECT_EQ(count, static_cast<std::size_t>(fc.numWires()));
}

} // namespace
} // namespace rfc
