/**
 * @file
 * Tests for what the benches share (bench_common.hpp): Bench's run
 * scale, its banner and its document's meta.scale; each paper
 * scenario's sizes and labels at smoke radices, pointer stability of
 * a moved Scenario, and routableRfc's throw.
 */
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "../bench/bench_common.hpp"

namespace rfc {
namespace {

std::vector<std::string>
labels(const Scenario &sc)
{
    std::vector<std::string> out;
    for (const Network &net : sc.networks())
        out.push_back(net.label);
    return out;
}

/** A one-job Bench over @p args that declares @p flags. */
std::unique_ptr<Bench>
makeBench(std::vector<const char *> args, std::vector<std::string> flags)
{
    args.insert(args.begin(), "bench");
    args.insert(args.end(), {"--jobs", "1"});
    return std::make_unique<Bench>(static_cast<int>(args.size()),
                                   args.data(), "bench", 1,
                                   std::move(flags));
}

/** What constructing makeBench(@p args, @p flags) throws. */
std::string
constructionError(std::vector<const char *> args,
                  std::vector<std::string> flags)
{
    try {
        makeBench(std::move(args), std::move(flags));
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(BenchScale, EachFlagMapsToItsScale)
{
    const std::vector<std::string> both{"smoke", "full"};
    EXPECT_EQ(makeBench({}, both)->scale, Scale::kDefault);
    EXPECT_EQ(makeBench({"--smoke"}, both)->scale, Scale::kSmoke);
    EXPECT_EQ(makeBench({"--full"}, both)->scale, Scale::kFull);
    EXPECT_EQ(makeBench({"--smoke", "0", "--full"}, both)->scale,
              Scale::kFull);
    EXPECT_EQ(makeBench({}, {"full"})->scale, Scale::kDefault);
    EXPECT_EQ(makeBench({"--smoke"}, {"smoke"})->scale, Scale::kSmoke);
    // A bench that declares neither flag has no scale.
    EXPECT_EQ(makeBench({}, {"radix"})->scale, std::nullopt);
}

TEST(BenchScale, SmokeWithFullThrowsNamingBoth)
{
    const std::string m =
        constructionError({"--smoke", "--full"}, {"smoke", "full"});
    EXPECT_NE(m.find("--smoke"), std::string::npos) << m;
    EXPECT_NE(m.find("--full"), std::string::npos) << m;
}

TEST(BenchScale, UndeclaredScaleFlagThrowsListingTheValidFlags)
{
    for (const char *flag : {"--full", "--smoke"}) {
        const std::string m = constructionError({flag}, {"radix"});
        EXPECT_NE(m.find(std::string("unknown flag ") + flag),
                  std::string::npos) << m;
        EXPECT_NE(m.find("valid: --csv, --jobs, --json, --radix, --seed"),
                  std::string::npos) << m;
    }
    const std::string m = constructionError({"--full"}, {"smoke"});
    EXPECT_NE(m.find("unknown flag --full"), std::string::npos) << m;
    EXPECT_NE(m.find("--smoke"), std::string::npos) << m;
}

TEST(BenchScale, BannerModeLineNamesTheScaleAndOnlyAcceptedFlags)
{
    const std::vector<std::string> both{"smoke", "full"};
    const std::vector<std::tuple<std::vector<const char *>,
                                 std::vector<std::string>, std::string>>
        cases{
            {{}, both,
             "mode: default (reduced scale; --smoke for CI scale, --full "
             "for paper scale)\n"},
            {{}, {"full"},
             "mode: default (reduced scale; --full for paper scale)\n"},
            {{}, {"smoke"},
             "mode: default (paper shapes; --smoke for CI scale)\n"},
            {{"--smoke"}, both,
             "mode: smoke (CI scale; --full for paper scale)\n"},
            {{"--smoke"}, {"smoke"}, "mode: smoke (CI scale)\n"},
            {{"--full"}, both,
             "mode: FULL (paper-scale; may take a long time)\n"},
            {{"--full"}, {"full"},
             "mode: FULL (paper-scale; may take a long time)\n"},
            {{}, {}, ""},
        };
    for (const auto &[args, flags, mode] : cases) {
        const auto b = makeBench(args, flags);
        testing::internal::CaptureStdout();
        b->banner("Figure 0");
        EXPECT_EQ(testing::internal::GetCapturedStdout(),
                  "== Figure 0 ==\n" + mode);
    }
}

TEST(BenchScale, DocumentRecordsTheScale)
{
    const std::vector<std::pair<std::vector<const char *>, std::string>>
        cases{{{"--json"}, "\"scale\": \"default\""},
              {{"--json", "--smoke"}, "\"scale\": \"smoke\""},
              {{"--json", "--full"}, "\"scale\": \"full\""}};
    for (const auto &[args, key] : cases) {
        const auto b = makeBench(args, {"smoke", "full"});
        testing::internal::CaptureStdout();
        EXPECT_EQ(b->finish(), 0);
        const std::string doc = testing::internal::GetCapturedStdout();
        EXPECT_NE(doc.find(key), std::string::npos) << doc;
    }
    const auto b = makeBench({"--json"}, {});
    testing::internal::CaptureStdout();
    b->finish();
    const std::string doc = testing::internal::GetCapturedStdout();
    EXPECT_EQ(doc.find("\"scale\""), std::string::npos) << doc;
}

TEST(BenchScenarios, EqualResourcesRfcHasTheCftLeafCount)
{
    Rng rng(8);
    const Scenario sc = equalResources(8, rng);
    EXPECT_EQ(labels(sc), (std::vector<std::string>{"CFT", "RFC"}));
    EXPECT_EQ(sc.topology(0).levels(), 3);
    EXPECT_EQ(sc.topology(1).levels(), 3);
    EXPECT_EQ(sc.topology(1).numLeaves(), sc.topology(0).numLeaves());
    EXPECT_EQ(sc.topology(1).numTerminals(), sc.topology(0).numTerminals());
    EXPECT_TRUE(sc.networks()[1].oracle->routable());
}

TEST(BenchScenarios, ReducedRadixRfcCarriesTheCftTerminals)
{
    // CFT(12, 3) has 432 terminals: 432 / 5 = 86 leaves at R' = 10;
    // CFT(8, 3) has 128: 128 / 5 = 25, raised to 26.
    for (const auto &[radix, small_radix, n1] :
         std::vector<std::tuple<int, int, int>>{{12, 10, 86}, {8, 10, 26}}) {
        Rng rng(8);
        Scenario sc = equalResources(radix, rng);
        addReducedRadixRfc(sc, small_radix, rng);
        ASSERT_EQ(sc.networks().size(), 3u);
        EXPECT_EQ(sc.networks()[2].label,
                  "RFC-r" + std::to_string(small_radix));
        EXPECT_EQ(sc.topology(2).radix(), small_radix);
        EXPECT_EQ(sc.topology(2).levels(), 3);
        EXPECT_EQ(sc.topology(2).numLeaves(), n1);
    }
}

TEST(BenchScenarios, Fig9TripleAtSandboxScale)
{
    Rng rng(9);
    const Scenario sc = fig9Triple(8, 16, 64, rng);
    EXPECT_EQ(labels(sc), (std::vector<std::string>{"CFT4", "CFT4-half",
                                                     "RFC3"}));
    EXPECT_EQ(sc.topology(0).levels(), 4);
    EXPECT_EQ(sc.topology(1).switchesAtLevel(4),
              sc.topology(0).switchesAtLevel(4) / 2);
    EXPECT_EQ(sc.topology(2).levels(), 3);
    EXPECT_EQ(sc.topology(2).radix(), 16);
    // The sandbox RFC carries the CFT's 512 terminals.
    EXPECT_EQ(sc.topology(0).numTerminals(), 512);
    EXPECT_EQ(sc.topology(2).numTerminals(), 512);
}

TEST(BenchScenarios, Fig10RfcSitsAtTheThreshold)
{
    Rng rng(10);
    const Scenario sc = fig10Pair(8, rng);
    EXPECT_EQ(labels(sc), (std::vector<std::string>{"CFT4", "RFC3"}));
    EXPECT_EQ(sc.topology(0).levels(), 4);
    EXPECT_EQ(sc.topology(1).numLeaves(), rfcMaxLeaves(8, 3));
    EXPECT_GE(sc.rfcAttempts(), 1);
}

TEST(BenchScenarios, SameTerminalPairMatchesTerminals)
{
    // fig_perf_1M --smoke's pair; at paper scale it is (54, 4).
    Rng rng(21);
    const Scenario sc = sameTerminals(8, 3, rng);
    EXPECT_EQ(labels(sc), (std::vector<std::string>{"CFT3", "RFC3"}));
    EXPECT_EQ(sc.topology(1).levels(), 3);
    EXPECT_EQ(sc.topology(1).numTerminals(), sc.topology(0).numTerminals());
}

TEST(BenchScenarios, NetworksSurviveAMove)
{
    Rng rng(8);
    Scenario sc = equalResources(8, rng);
    addReducedRadixRfc(sc, 10, rng);
    const std::vector<Network> before = sc.networks();

    std::vector<Scenario> held;
    held.push_back(std::move(sc));
    held.push_back(fig10Pair(8, rng));  // may reallocate held
    const std::vector<Network> &after = held.front().networks();
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
        EXPECT_EQ(after[i].topology, before[i].topology);
        EXPECT_EQ(after[i].oracle, before[i].oracle);
        EXPECT_TRUE(after[i].oracle->routable());
    }
    EXPECT_EQ(after[1].topology->numLeaves(), after[0].topology->numLeaves());
}

TEST(BenchScenarios, RoutableRfcThrowsNamingTheShape)
{
    // Two levels of radix 4 cannot give 64 leaves common parents:
    // every one of the 200 attempts fails.
    Rng rng(1);
    try {
        routableRfc(4, 2, 64, rng);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        for (const char *part : {"R=4", "l=2", "N1=64", "200 attempts"})
            EXPECT_NE(what.find(part), std::string::npos)
                << part << " missing from: " << what;
    }
}

} // namespace
} // namespace rfc
