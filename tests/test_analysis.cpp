/**
 * @file
 * Tests pinning the analytic models to the paper's published numbers
 * (Sections 4.3 and 5).
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/cost.hpp"
#include "analysis/scalability.hpp"
#include "clos/oft.hpp"
#include "clos/rfc.hpp"

namespace rfc {
namespace {

TEST(Scalability, CftClosedForm)
{
    EXPECT_EQ(cftTerminals(36, 3), 11664);   // Section 5: 11K scenario
    EXPECT_EQ(cftTerminals(36, 4), 209952);  // Section 5: 200K scenario
    EXPECT_EQ(cftTerminals(4, 4), 32);       // Figure 1
    EXPECT_EQ(cftTerminals(20, 3), 2000);    // radix-20 example, 11K RFC
}

TEST(Scalability, ModelsRejectRadixTheyCannotModel)
{
    // An odd folded-Clos radix would model R - 1 (R/2 rounds down);
    // below 4 a model's capacity never grows, so a level search at
    // R = 2 (cftTerminals(2, l) = 2 for every l) never ended.
    for (int radix : {7, 2, 3, 0, -4}) {
        SCOPED_TRACE(radix);
        EXPECT_THROW(cftTerminals(radix, 3), std::invalid_argument);
        EXPECT_THROW(cftLevelsFor(100, radix), std::invalid_argument);
        EXPECT_THROW(cftDiameterFor(100, radix), std::invalid_argument);
        EXPECT_THROW(rfcMaxTerminals(radix, 3), std::invalid_argument);
        EXPECT_THROW(rfcLevelsFor(100, radix), std::invalid_argument);
        EXPECT_THROW(rfcDiameterFor(100, radix), std::invalid_argument);
        EXPECT_THROW(oftOrderFromRadix(radix), std::invalid_argument);
        EXPECT_THROW(oftDiameterFor(100, radix), std::invalid_argument);
        EXPECT_THROW(cftCost(radix, 3), std::invalid_argument);
        EXPECT_THROW(rfcCost(radix, 3, 64), std::invalid_argument);
        EXPECT_THROW(cftCostFor(100, radix), std::invalid_argument);
        EXPECT_THROW(oftCostFor(100, radix), std::invalid_argument);
        EXPECT_THROW(rfcCostFor(100, radix), std::invalid_argument);
    }
    // RRN switches may have any radix from 4; below it Delta^D stalls.
    for (int radix : {2, 3}) {
        SCOPED_TRACE(radix);
        EXPECT_THROW(rrnMaxSwitches(radix, 2), std::invalid_argument);
        EXPECT_THROW(rrnMaxTerminals(radix, 2), std::invalid_argument);
        EXPECT_THROW(rrnDiameterFor(100, radix), std::invalid_argument);
        EXPECT_THROW(rrnCost(radix, 2, 10), std::invalid_argument);
        EXPECT_THROW(rrnCostFor(100, radix), std::invalid_argument);
    }
    EXPECT_GT(rrnMaxTerminals(5, 4), 0);
    EXPECT_EQ(cftTerminals(4, 1), 4);
    EXPECT_EQ(cftCostFor(1, 4).levels, 1);
}

TEST(Scalability, CftLevelsFor)
{
    EXPECT_EQ(cftLevelsFor(11664, 36), 3);
    EXPECT_EQ(cftLevelsFor(11665, 36), 4);
    EXPECT_EQ(cftLevelsFor(100008, 36), 4);
}

TEST(Scalability, RfcMaxTerminalsPaperNumbers)
{
    // Section 5: maximum 3-level radix-36 RFC has 2*5627*18 = 202,572
    // terminals (N1 = 11,254).
    long long t = rfcMaxTerminals(36, 3);
    EXPECT_NEAR(static_cast<double>(t), 202572.0, 2000.0);
}

TEST(Scalability, RfcScalesBetterThanCft)
{
    for (int radix : {16, 24, 36}) {
        for (int levels : {2, 3, 4}) {
            EXPECT_GT(rfcMaxTerminals(radix, levels),
                      cftTerminals(radix, levels))
                << "R=" << radix << " l=" << levels;
        }
    }
}

TEST(Scalability, OftScalesBestOfIndirect)
{
    // Figure 6: the l-level OFT scales at least like the (l+1)-level
    // CFT, and beats the RFC at equal radix and levels.
    for (int q : {5, 7, 17}) {
        int radix = 2 * (q + 1);
        for (int levels : {2, 3}) {
            EXPECT_GE(oftTerminals(q, levels),
                      cftTerminals(radix, levels + 1) / 2);
            EXPECT_GT(oftTerminals(q, levels),
                      rfcMaxTerminals(radix, levels));
        }
    }
}

TEST(Scalability, DiameterEvolution)
{
    // Figure 5 at R=36: CFT diameter jumps at capacity boundaries.
    EXPECT_EQ(cftDiameterFor(648, 36), 2);
    EXPECT_EQ(cftDiameterFor(11664, 36), 4);
    EXPECT_EQ(cftDiameterFor(11665, 36), 6);
    // RFC holds diameter 4 all the way to ~202k terminals.
    EXPECT_EQ(rfcDiameterFor(100008, 36), 4);
    EXPECT_EQ(rfcDiameterFor(202000, 36), 4);
    EXPECT_EQ(rfcDiameterFor(210000, 36), 6);
}

TEST(Scalability, RrnModel)
{
    // Section 4.2's RRN example: radix 36, diameter 4 -> a couple of
    // hundred thousand terminals (the paper quotes 227,730 with a
    // hand-tuned Delta=26; our Delta = floor(R D/(D+1)) = 28 gives the
    // same order of magnitude).
    long long t = rrnMaxTerminals(36, 4);
    EXPECT_GT(t, 150000);
    EXPECT_LT(t, 400000);
    EXPECT_GT(rrnMaxSwitches(36, 4), 10000);
}

TEST(Scalability, RrnDiameterMonotone)
{
    EXPECT_LE(rrnDiameterFor(1000, 36), rrnDiameterFor(100000, 36));
    EXPECT_EQ(rrnDiameterFor(rrnMaxTerminals(36, 3), 36), 3);
}

TEST(Cost, CftPaperCounts)
{
    // Section 5: a 4-level radix-36 CFT uses 40,824 switches and
    // 629,856 wires.
    auto c = cftCost(36, 4);
    EXPECT_EQ(c.switches, 40824);
    EXPECT_EQ(c.wires, 629856);
    EXPECT_EQ(c.terminals, 209952);
    // And the 3-level CFT: 1,620 switches.
    auto c3 = cftCost(36, 3);
    EXPECT_EQ(c3.switches, 1620);
    EXPECT_EQ(c3.wires, 2 * 648 * 18);
}

TEST(Cost, RfcPaperCounts)
{
    // Section 5: the 200K 3-level RFC uses 28,135 switches and
    // 405,144 wires.
    auto c = rfcCost(36, 3, 11254);
    EXPECT_EQ(c.switches, 28135);
    EXPECT_EQ(c.wires, 405144);
    EXPECT_EQ(c.terminals, 202572);
}

TEST(Cost, PaperSavingsPercentages)
{
    // Section 5: RFC saves 31% switches and 36% wires vs the 4-level
    // CFT at maximum expansion.
    auto cft = cftCost(36, 4);
    auto rfc_c = rfcCost(36, 3, 11254);
    double switch_saving =
        1.0 - static_cast<double>(rfc_c.switches) / cft.switches;
    double wire_saving =
        1.0 - static_cast<double>(rfc_c.wires) / cft.wires;
    EXPECT_NEAR(switch_saving, 0.31, 0.01);
    EXPECT_NEAR(wire_saving, 0.36, 0.01);
}

TEST(Cost, Intermediate100kScenario)
{
    // Section 5: the 100K 3-level RFC uses 13,890 switches and
    // 200,016 wires (N1 = 5,556).
    auto c = rfcCost(36, 3, 5556);
    EXPECT_EQ(c.switches, 13890);
    EXPECT_EQ(c.wires, 200016);
    EXPECT_EQ(c.terminals, 100008);
}

TEST(Cost, Radix20RfcMatches11kScenario)
{
    // Section 5: an RFC with radix-20 routers and 1,166*2 leaf
    // switches connects 11,660 terminals with wire cost similar to the
    // radix-36 CFT.
    auto c = rfcCost(20, 3, 1166);
    EXPECT_EQ(c.terminals, 11660);
    auto cft = cftCost(36, 3);
    double ratio = static_cast<double>(c.wires) / cft.wires;
    EXPECT_NEAR(ratio, 1.0, 0.12);
}

TEST(Cost, StepFunctionForCft)
{
    // Figure 7: CFT cost is flat between capacity thresholds.
    auto a = cftCostFor(5000, 36);
    auto b = cftCostFor(11664, 36);
    EXPECT_EQ(a.ports, b.ports);
    auto c = cftCostFor(11665, 36);
    EXPECT_GT(c.ports, b.ports);
}

TEST(Cost, RfcNearLinear)
{
    // Figure 7: RFC cost grows linearly in terminals (no big steps).
    auto a = rfcCostFor(10000, 36);
    auto b = rfcCostFor(20000, 36);
    double per_term_a = static_cast<double>(a.ports) / a.terminals;
    double per_term_b = static_cast<double>(b.ports) / b.terminals;
    EXPECT_NEAR(per_term_a, per_term_b, 0.05 * per_term_a);
}

TEST(Cost, RfcCheaperThanCftAtIntermediateSizes)
{
    // The 100K comparison: 3-level RFC vs (full) 4-level CFT.
    auto rfc_c = rfcCostFor(100008, 36);
    auto cft_c = cftCostFor(100008, 36);
    EXPECT_LT(rfc_c.ports, cft_c.ports);
    EXPECT_LT(rfc_c.switches, cft_c.switches);
    EXPECT_EQ(rfc_c.levels, 3);
    EXPECT_EQ(cft_c.levels, 4);
}

TEST(Cost, RrnAndRfcComparableCost)
{
    // Figure 7: the two random topologies cost about the same.
    auto rfc_c = rfcCostFor(50000, 36);
    auto rrn_c = rrnCostFor(50000, 36);
    double ratio = static_cast<double>(rfc_c.ports) / rrn_c.ports;
    EXPECT_GT(ratio, 0.6);
    EXPECT_LT(ratio, 1.6);
}

class CostMonotonicityP : public ::testing::TestWithParam<int>
{};

TEST_P(CostMonotonicityP, CapacitiesGrowWithRadix)
{
    int radix = GetParam();
    for (int levels : {2, 3, 4}) {
        EXPECT_LT(cftTerminals(radix, levels),
                  cftTerminals(radix + 4, levels));
        EXPECT_LT(rfcMaxTerminals(radix, levels),
                  rfcMaxTerminals(radix + 4, levels));
        EXPECT_LE(rrnMaxTerminals(radix, 2 * (levels - 1)),
                  rrnMaxTerminals(radix + 4, 2 * (levels - 1)));
    }
}

TEST_P(CostMonotonicityP, CostFunctionsMonotoneInTerminals)
{
    int radix = GetParam();
    long long prev_cft = 0, prev_rfc = 0, prev_rrn = 0;
    for (long long t = 500; t <= 64000; t *= 2) {
        auto cft = cftCostFor(t, radix);
        auto rfc_c = rfcCostFor(t, radix);
        auto rrn = rrnCostFor(t, radix);
        EXPECT_GE(cft.ports, prev_cft);
        EXPECT_GE(rfc_c.ports, prev_rfc);
        EXPECT_GE(rrn.ports, prev_rrn);
        EXPECT_GE(cft.terminals, t);
        EXPECT_GE(rfc_c.terminals, t);
        EXPECT_GE(rrn.terminals, t);
        prev_cft = cft.ports;
        prev_rfc = rfc_c.ports;
        prev_rrn = rrn.ports;
    }
}

TEST_P(CostMonotonicityP, PortsConsistentWithWires)
{
    int radix = GetParam();
    for (long long t : {1000LL, 10000LL, 100000LL}) {
        for (auto c : {cftCostFor(t, radix), rfcCostFor(t, radix),
                       rrnCostFor(t, radix)})
            EXPECT_EQ(c.ports, 2 * c.wires);
    }
}

INSTANTIATE_TEST_SUITE_P(Radices, CostMonotonicityP,
                         ::testing::Values(16, 20, 24, 36, 48));

TEST(Cost, OftCostStructure)
{
    auto c = oftCost(3, 2);
    // 2-level OFT(3): 26 leaves + 13 roots, each leaf has 4 up links.
    EXPECT_EQ(c.switches, 26 + 13);
    EXPECT_EQ(c.wires, 26 * 4);
    EXPECT_EQ(c.terminals, 104);
}

} // namespace
} // namespace rfc
