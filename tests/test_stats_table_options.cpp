/**
 * @file
 * Unit tests for RunningStat, TablePrinter and Options.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace rfc {
namespace {

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.ci95(), 0.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStat, KnownMeanAndVariance)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of this classic set is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, Ci95ShrinksWithSamples)
{
    RunningStat small, large;
    for (int i = 0; i < 10; ++i)
        small.add(i % 2);
    for (int i = 0; i < 1000; ++i)
        large.add(i % 2);
    EXPECT_GT(small.ci95(), large.ci95());
}

TEST(TablePrinter, AlignedOutputContainsCells)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TablePrinter, CsvOutput)
{
    TablePrinter t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinter, RowWidthMismatchThrows)
{
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
}

TEST(TablePrinter, Formatters)
{
    EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
    EXPECT_EQ(TablePrinter::fmtInt(1234567), "1,234,567");
    EXPECT_EQ(TablePrinter::fmtInt(-42), "-42");
    EXPECT_EQ(TablePrinter::fmtInt(999), "999");
    EXPECT_EQ(TablePrinter::fmtPct(0.456, 1), "45.6%");
}

/** The what() of the exception of type E @p fn throws ("" if none). */
template <typename E = std::invalid_argument, typename Fn>
std::string
thrownMessage(Fn fn)
{
    try {
        fn();
    } catch (const E &e) {
        return e.what();
    }
    return "";
}

TEST(Options, ParsesEqualsForm)
{
    const char *argv[] = {"prog", "--radix=36", "--load=0.5"};
    Options o(3, argv, {"radix", "load"});
    EXPECT_EQ(o.getInt("radix", 0), 36);
    EXPECT_DOUBLE_EQ(o.getDouble("load", 0.0), 0.5);
}

TEST(Options, ParsesSpaceForm)
{
    const char *argv[] = {"prog", "--levels", "4"};
    Options o(3, argv, {"levels"});
    EXPECT_EQ(o.getInt("levels", 0), 4);
}

TEST(Options, BareFlag)
{
    const char *argv[] = {"prog", "--fast"};
    Options o(2, argv, {"fast", "slow"});
    EXPECT_TRUE(o.has("fast"));
    EXPECT_TRUE(o.getBool("fast", false));
    EXPECT_FALSE(o.getBool("slow", false));
}

TEST(Options, Defaults)
{
    const char *argv[] = {"prog"};
    Options o(1, argv, {"x", "s", "b"});
    EXPECT_EQ(o.getInt("x", 7), 7);
    EXPECT_EQ(o.get("s", "dflt"), "dflt");
    EXPECT_TRUE(o.getBool("b", true));
}

TEST(Options, BooleanValues)
{
    const char *argv[] = {"prog",    "--a=0",  "--b=true", "--c=false",
                          "--d=yes", "--e=no", "--f=1",    "--g=2",
                          "--h=on",  "--i=TRUE"};
    Options o(10, argv, {"a", "b", "c", "d", "e", "f", "g", "h", "i"});
    EXPECT_FALSE(o.getBool("a", true));
    EXPECT_TRUE(o.getBool("b", false));
    EXPECT_FALSE(o.getBool("c", true));
    EXPECT_TRUE(o.getBool("d", false));
    EXPECT_FALSE(o.getBool("e", true));
    EXPECT_TRUE(o.getBool("f", false));
    // Any other value is an error naming the flag, not a silent false:
    // "--json 2" used to print text tables.
    const std::string m = thrownMessage([&] { o.getBool("g", false); });
    EXPECT_NE(m.find("--g"), std::string::npos) << m;
    EXPECT_NE(m.find("'2'"), std::string::npos) << m;
    EXPECT_THROW(o.getBool("h", false), std::invalid_argument);
    EXPECT_THROW(o.getBool("i", false), std::invalid_argument);
}

TEST(Options, RejectsPositionalArguments)
{
    const char *argv[] = {"prog", "junk"};
    EXPECT_THROW(Options(2, argv, {"junk"}), std::invalid_argument);
}

TEST(Options, RepeatedFlagLastWins)
{
    const char *argv[] = {"prog", "--radix=8", "--radix=16",
                          "--load", "0.1", "--load=0.9"};
    Options o(6, argv, {"radix", "load"});
    EXPECT_EQ(o.getInt("radix", 0), 16);
    EXPECT_DOUBLE_EQ(o.getDouble("load", 0.0), 0.9);
}

TEST(Options, MissingValueAtEndBecomesBareFlag)
{
    // "--levels" with nothing after it cannot consume a value; it
    // parses as a bare flag, so typed accessors see an empty string.
    const char *argv[] = {"prog", "--levels"};
    Options o(2, argv, {"levels"});
    EXPECT_TRUE(o.has("levels"));
    EXPECT_EQ(o.get("levels", "x"), "");
    EXPECT_THROW(o.getInt("levels", 0), std::invalid_argument);
    EXPECT_THROW(o.getDouble("levels", 0.0), std::invalid_argument);
    EXPECT_TRUE(o.getBool("levels", false));  // bare flag = true
}

TEST(Options, FlagFollowedByFlagDoesNotStealValue)
{
    const char *argv[] = {"prog", "--fast", "--jobs=4"};
    Options o(3, argv, {"fast", "jobs"});
    EXPECT_EQ(o.get("fast", "x"), "");
    EXPECT_EQ(o.getInt("jobs", 0), 4);
}

TEST(Options, UnknownFlagIsRejectedListingTheDeclaredNames)
{
    const char *argv[] = {"prog", "--definitely-not-a-real-option=3"};
    const std::string m =
        thrownMessage([&] { Options(2, argv, {"radix", "load"}); });
    EXPECT_NE(m.find("--definitely-not-a-real-option"), std::string::npos)
        << m;
    EXPECT_NE(m.find("--load, --radix"), std::string::npos) << m;
}

TEST(Options, NearMissOfADeclaredFlagIsRejected)
{
    const char *argv[] = {"prog", "--job", "4"};
    const std::string m = thrownMessage([&] { Options(3, argv, {"jobs"}); });
    EXPECT_NE(m.find("--job "), std::string::npos) << m;
    EXPECT_NE(m.find("--jobs"), std::string::npos) << m;
}

TEST(Options, EveryFormIsCheckedAgainstTheDeclaredNames)
{
    const char *equals[] = {"prog", "--warm-up=3000"};
    const char *space[] = {"prog", "--warm-up", "3000"};
    const char *bare[] = {"prog", "--warm-up"};
    const std::vector<std::string> flags{"warmup"};
    EXPECT_THROW(Options(2, equals, flags), std::invalid_argument);
    EXPECT_THROW(Options(3, space, flags), std::invalid_argument);
    EXPECT_THROW(Options(2, bare, flags), std::invalid_argument);
    // A value is never taken for a flag name, nor "--" for an empty one.
    const char *value[] = {"prog", "--warmup", "warm-up"};
    EXPECT_EQ(Options(3, value, flags).get("warmup", ""), "warm-up");
    const char *empty[] = {"prog", "--"};
    EXPECT_THROW(Options(2, empty, flags), std::invalid_argument);
}

TEST(Options, HelpListsTheDeclaredFlags)
{
    // --help wins wherever it stands, even after an undeclared flag.
    const char *argv[] = {"prog", "--bogus", "1", "--help"};
    try {
        Options(4, argv, {"radix", "load"});
        FAIL() << "--help did not throw";
    } catch (const HelpRequested &help) {
        const std::string usage = help.what();
        EXPECT_NE(usage.find("usage: prog"), std::string::npos) << usage;
        EXPECT_NE(usage.find("  --load\n  --radix\n"), std::string::npos)
            << usage;
    }
}

int
mainReturning(int argc, char **argv)
{
    return argc == 1 ? 7 : std::atoi(argv[1]);
}

int
mainThrowing(int argc, char **argv)
{
    Options opts(argc, argv, {"radix"});
    return opts.getIntAtLeast("radix", 4, 2);
}

TEST(RunMain, MapsHelpToZeroAndErrorsToTwo)
{
    char prog[] = "prog", five[] = "5", help[] = "--help",
         bogus[] = "--bogus", radix[] = "--radix", one[] = "1";
    char *plain[] = {prog};
    char *value[] = {prog, five};
    EXPECT_EQ(runMain(1, plain, mainReturning), 7);
    EXPECT_EQ(runMain(2, value, mainReturning), 5);

    char *asks[] = {prog, help};
    testing::internal::CaptureStdout();
    EXPECT_EQ(runMain(2, asks, mainThrowing), 0);
    EXPECT_NE(testing::internal::GetCapturedStdout().find("--radix"),
              std::string::npos);

    char *undeclared[] = {prog, bogus};
    char *low[] = {prog, radix, one};
    for (char **args : {undeclared, low}) {
        testing::internal::CaptureStderr();
        EXPECT_EQ(runMain(args == low ? 3 : 2, args, mainThrowing), 2);
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(err.rfind("error: ", 0), 0u) << err;
        EXPECT_NE(err.find(args == low ? "--radix" : "--bogus"),
                  std::string::npos)
            << err;
    }
}

TEST(Options, ReadingAnUndeclaredNameIsALogicError)
{
    // Thrown whether or not the flag was given, so a declaration list
    // that drifts from the reads fails the first run.
    const char *argv[] = {"prog", "--radix=8"};
    Options o(2, argv, {"radix"});
    // std::invalid_argument derives from std::logic_error; the message
    // tells the declaration error from a parse error.
    const std::string m =
        thrownMessage<std::logic_error>([&] { o.getInt("levels", 3); });
    EXPECT_NE(m.find("--levels"), std::string::npos) << m;
    EXPECT_NE(m.find("not declared"), std::string::npos) << m;
    EXPECT_THROW(o.has("levels"), std::logic_error);
    EXPECT_THROW(o.get("levels", ""), std::logic_error);
    EXPECT_THROW(o.getIntAtLeast("levels", 3, 1), std::logic_error);
    EXPECT_THROW(o.getDouble("levels", 0.0), std::logic_error);
    EXPECT_THROW(o.getBool("levels", false), std::logic_error);
    EXPECT_THROW(o.getList("levels", "a"), std::logic_error);
    EXPECT_THROW(o.getDoubleList("levels", "1"), std::logic_error);
    EXPECT_THROW(o.jobs(), std::logic_error);
}

TEST(Options, DeclaresNamesOnlyTheDeclaredFlags)
{
    const char *argv[] = {"prog"};
    Options o(1, argv, {"radix", "full"});
    EXPECT_TRUE(o.declares("radix"));
    EXPECT_TRUE(o.declares("full"));  // declared, though not given
    EXPECT_FALSE(o.declares("smoke"));
}

TEST(Options, NonNumericValueThrowsFromTypedAccessors)
{
    const char *argv[] = {"prog", "--radix=abc"};
    Options o(2, argv, {"radix"});
    EXPECT_THROW(o.getInt("radix", 0), std::invalid_argument);
    EXPECT_THROW(o.getDouble("radix", 0.0), std::invalid_argument);
    EXPECT_EQ(o.get("radix", ""), "abc");  // string access still works
}

TEST(Options, NumbersMustParseAsTheWholeValue)
{
    const char *argv[] = {"prog",        "--trials=4x", "--load=0.5x",
                          "--radix= 8",  "--big=99999999999999999999",
                          "--hex=0x10",  "--ok=-3",     "--frac=2.5e-1"};
    Options o(8, argv,
              {"trials", "load", "radix", "big", "hex", "ok", "frac"});
    EXPECT_THROW(o.getInt("trials", 1), std::invalid_argument);
    EXPECT_THROW(o.getDouble("trials", 1.0), std::invalid_argument);
    EXPECT_THROW(o.getDouble("load", 0.0), std::invalid_argument);
    EXPECT_THROW(o.getInt("radix", 0), std::invalid_argument);
    EXPECT_THROW(o.getInt("big", 0), std::invalid_argument);
    EXPECT_THROW(o.getInt("hex", 0), std::invalid_argument);
    EXPECT_THROW(o.getInt("frac", 0), std::invalid_argument);
    EXPECT_EQ(o.getInt("ok", 0), -3);
    EXPECT_DOUBLE_EQ(o.getDouble("ok", 0.0), -3.0);
    EXPECT_DOUBLE_EQ(o.getDouble("frac", 0.0), 0.25);
}

TEST(Options, IntAtLeastRejectsValuesAnIntCastWouldWrap)
{
    const char *argv[] = {"prog", "--max-paths=4294967297", "--samples=-1",
                          "--phases=2147483647", "--zero=0"};
    Options o(5, argv, {"max-paths", "samples", "phases", "zero", "absent"});
    std::string m =
        thrownMessage([&] { o.getIntAtLeast("max-paths", 16, 1); });
    EXPECT_NE(m.find("--max-paths"), std::string::npos) << m;
    EXPECT_NE(m.find("4294967297"), std::string::npos) << m;
    EXPECT_NE(m.find("[1, 2147483647]"), std::string::npos) << m;
    EXPECT_THROW(o.getIntAtLeast("samples", 4, 0), std::invalid_argument);
    EXPECT_THROW(o.getIntAtLeast("zero", 1, 1), std::invalid_argument);
    // Both bounds are inclusive; an absent flag yields its default.
    EXPECT_EQ(o.getIntAtLeast("phases", 1, 1),
              std::numeric_limits<int>::max());
    EXPECT_EQ(o.getIntAtLeast("zero", 1, 0), 0);
    EXPECT_EQ(o.getIntAtLeast("absent", 8, 1), 8);
}

TEST(Options, IntRangeNamesFlagValueAndBothBounds)
{
    // The drills' schedule cycles must lie inside the run and their
    // fault counts be positive: "--change-at 999999" never fired and
    // "--step-links -3" wrapped in a size_t cast.
    const char *argv[] = {"prog", "--change-at", "999999",
                          "--step-links", "-3", "--fail-at=1199"};
    Options o(6, argv, {"change-at", "step-links", "fail-at", "absent"});
    std::string m =
        thrownMessage([&] { o.getInt("change-at", 400, 0, 1199); });
    EXPECT_NE(m.find("--change-at"), std::string::npos) << m;
    EXPECT_NE(m.find("999999"), std::string::npos) << m;
    EXPECT_NE(m.find("[0, 1199]"), std::string::npos) << m;
    m = thrownMessage([&] { o.getInt("step-links", 4, 1); });
    EXPECT_NE(m.find("--step-links"), std::string::npos) << m;
    EXPECT_NE(m.find("-3"), std::string::npos) << m;
    EXPECT_EQ(o.getInt("fail-at", 400, 0, 1199), 1199);
    EXPECT_THROW(o.getInt("fail-at", 400, 0, 1198), std::invalid_argument);
    EXPECT_EQ(o.getInt("absent", -1, -1, 1199), -1);
}

TEST(Options, BadNumberMessageNamesFlagAndValue)
{
    const char *argv[] = {"prog", "--trials", "abc", "--load=1.5q"};
    Options o(4, argv, {"trials", "load"});
    std::string m = thrownMessage([&] { o.getInt("trials", 1); });
    EXPECT_NE(m.find("--trials"), std::string::npos) << m;
    EXPECT_NE(m.find("'abc'"), std::string::npos) << m;
    m = thrownMessage([&] { o.getDouble("load", 0.0); });
    EXPECT_NE(m.find("--load"), std::string::npos) << m;
    EXPECT_NE(m.find("'1.5q'"), std::string::npos) << m;
}

TEST(Options, ListsSplitOnCommasAndDefault)
{
    const char *argv[] = {"prog", "--patterns=uniform,shift",
                          "--loads=0.25,0.5,9e-1"};
    Options o(3, argv, {"patterns", "loads", "absent"});
    EXPECT_EQ(o.getList("patterns", "x"),
              (std::vector<std::string>{"uniform", "shift"}));
    EXPECT_EQ(o.getList("absent", "a,b"),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(o.getDoubleList("loads", "1"),
              (std::vector<double>{0.25, 0.5, 0.9}));
    EXPECT_EQ(o.getDoubleList("absent", "0.5"), std::vector<double>{0.5});
}

TEST(Options, ListItemsParseStrictly)
{
    // Every item parses as strictly as getDouble: "0.5x" used to run at
    // load 0.5 and "abc" aborted with a bare "stod".
    const char *argv[] = {"prog", "--a=0.5x", "--b=abc", "--c=0.5,,0.9",
                          "--d=0.5,"};
    Options o(5, argv, {"a", "b", "c", "d"});
    std::string m = thrownMessage([&] { o.getDoubleList("a", ""); });
    EXPECT_NE(m.find("--a"), std::string::npos) << m;
    EXPECT_NE(m.find("'0.5x'"), std::string::npos) << m;
    m = thrownMessage([&] { o.getDoubleList("b", ""); });
    EXPECT_NE(m.find("'abc'"), std::string::npos) << m;
    EXPECT_THROW(o.getDoubleList("c", ""), std::invalid_argument);
    EXPECT_THROW(o.getList("d", ""), std::invalid_argument);
}

TEST(Options, ListOutsideTheValidNamesThrowsListingThem)
{
    const char *argv[] = {"prog", "--section=fig8,fig9", "--ok=fig10"};
    Options o(3, argv, {"section", "ok", "absent"});
    const std::vector<std::string> valid{"fig8", "fig10", "all"};
    const std::string m =
        thrownMessage([&] { o.getList("section", "", valid); });
    EXPECT_NE(m.find("--section"), std::string::npos) << m;
    EXPECT_NE(m.find("'fig9'"), std::string::npos) << m;
    EXPECT_NE(m.find("fig8, fig10, all"), std::string::npos) << m;
    EXPECT_EQ(o.getList("ok", "", valid), std::vector<std::string>{"fig10"});
    EXPECT_EQ(o.getList("absent", "all", valid),
              std::vector<std::string>{"all"});
}

TEST(Options, JobsParsesTheFlagStrictly)
{
    const std::vector<std::string> flags{"jobs"};
    const char *none[] = {"prog"};
    EXPECT_EQ(Options(1, none, flags).jobs(), 0);  // auto
    const char *flag[] = {"prog", "--jobs=2"};
    EXPECT_EQ(Options(2, flag, flags).jobs(), 2);
    const char *bad[] = {"prog", "--jobs=2 "};
    EXPECT_THROW(Options(2, bad, flags).jobs(), std::invalid_argument);
    const char *huge[] = {"prog", "--jobs=4294967296"};
    EXPECT_THROW(Options(2, huge, flags).jobs(), std::invalid_argument);
}

TEST(ChiSquare, ExactStatisticOnSmallExample)
{
    // O = {10, 20, 30}, E = {20, 20, 20}:
    // (100 + 0 + 100) / 20 = 10.
    std::vector<long long> obs{10, 20, 30};
    std::vector<double> exp{20.0, 20.0, 20.0};
    EXPECT_NEAR(chiSquareStat(obs, exp), 10.0, 1e-12);
}

TEST(ChiSquare, UniformStatOfPerfectFitIsZero)
{
    std::vector<long long> obs{25, 25, 25, 25};
    EXPECT_NEAR(chiSquareUniformStat(obs), 0.0, 1e-12);
}

TEST(ChiSquare, ZeroExpectedCellWithObservationsIsInfinite)
{
    std::vector<long long> obs{5, 1};
    std::vector<double> exp{5.0, 0.0};
    EXPECT_TRUE(std::isinf(chiSquareStat(obs, exp)));
    // ...but a zero-expected, zero-observed cell contributes nothing.
    std::vector<long long> obs2{5, 0};
    EXPECT_NEAR(chiSquareStat(obs2, exp), 0.0, 1e-12);
}

TEST(ChiSquare, CriticalValuesNearTabulated)
{
    // Wilson-Hilferty is accurate to a few percent: compare against
    // standard table entries.
    EXPECT_NEAR(chiSquareCritical(10, 0.05), 18.307, 0.5);
    EXPECT_NEAR(chiSquareCritical(30, 0.01), 50.892, 1.0);
    // Wilson-Hilferty loses ~3% of accuracy this deep in the tail.
    EXPECT_NEAR(chiSquareCritical(62, 0.001), 105.2, 3.5);
    // Monotone in df and in significance.
    EXPECT_LT(chiSquareCritical(10, 0.05), chiSquareCritical(20, 0.05));
    EXPECT_LT(chiSquareCritical(10, 0.05), chiSquareCritical(10, 0.01));
}

} // namespace
} // namespace rfc
