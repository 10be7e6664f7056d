/**
 * @file
 * Unit tests for RunningStat, TablePrinter and Options.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

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

TEST(Quantile, SingleSampleAndEndpoints)
{
    EXPECT_DOUBLE_EQ(quantile({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(quantile({7.0}, 1.0), 7.0);
    std::vector<double> v{3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 3.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.0);
}

TEST(Quantile, LinearInterpolationType7)
{
    // Four sorted samples: position q * 3 interpolates neighbors.
    std::vector<double> v{10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 25.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.25), 17.5);
    EXPECT_NEAR(quantile(v, 0.99), 39.7, 1e-12);
    // Unsorted input gives the same answers.
    std::vector<double> shuffled{40.0, 10.0, 30.0, 20.0};
    EXPECT_DOUBLE_EQ(quantile(shuffled, 0.25), 17.5);
}

TEST(Quantile, BatchMatchesSingle)
{
    std::vector<double> v;
    for (int i = 100; i >= 0; --i)
        v.push_back(static_cast<double>(i));
    auto qs = quantiles(v, {0.0, 0.05, 0.5, 0.95, 1.0});
    ASSERT_EQ(qs.size(), 5u);
    EXPECT_DOUBLE_EQ(qs[0], 0.0);
    EXPECT_DOUBLE_EQ(qs[1], 5.0);
    EXPECT_DOUBLE_EQ(qs[2], 50.0);
    EXPECT_DOUBLE_EQ(qs[3], 95.0);
    EXPECT_DOUBLE_EQ(qs[4], 100.0);
    for (std::size_t i = 0; i < qs.size(); ++i)
        EXPECT_DOUBLE_EQ(qs[i],
                         quantile(v, std::vector<double>{
                                         0.0, 0.05, 0.5, 0.95, 1.0}[i]));
}

TEST(Quantile, RejectsBadInput)
{
    EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
    EXPECT_THROW(quantile({1.0}, -0.1), std::invalid_argument);
    EXPECT_THROW(quantile({1.0}, 1.1), std::invalid_argument);
    EXPECT_THROW(quantiles({1.0}, {0.5, 2.0}), std::invalid_argument);
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

TEST(Options, ParsesEqualsForm)
{
    const char *argv[] = {"prog", "--radix=36", "--load=0.5"};
    Options o(3, argv);
    EXPECT_EQ(o.getInt("radix", 0), 36);
    EXPECT_DOUBLE_EQ(o.getDouble("load", 0.0), 0.5);
}

TEST(Options, ParsesSpaceForm)
{
    const char *argv[] = {"prog", "--levels", "4"};
    Options o(3, argv);
    EXPECT_EQ(o.getInt("levels", 0), 4);
}

TEST(Options, BareFlag)
{
    const char *argv[] = {"prog", "--fast"};
    Options o(2, argv);
    EXPECT_TRUE(o.has("fast"));
    EXPECT_TRUE(o.getBool("fast", false));
    EXPECT_FALSE(o.getBool("slow", false));
}

TEST(Options, Defaults)
{
    const char *argv[] = {"prog"};
    Options o(1, argv);
    EXPECT_EQ(o.getInt("x", 7), 7);
    EXPECT_EQ(o.get("s", "dflt"), "dflt");
    EXPECT_TRUE(o.getBool("b", true));
}

TEST(Options, BooleanValues)
{
    const char *argv[] = {"prog", "--a=0", "--b=true", "--c=false"};
    Options o(4, argv);
    EXPECT_FALSE(o.getBool("a", true));
    EXPECT_TRUE(o.getBool("b", false));
    EXPECT_FALSE(o.getBool("c", true));
}

TEST(Options, RejectsPositionalArguments)
{
    const char *argv[] = {"prog", "junk"};
    EXPECT_THROW(Options(2, argv), std::invalid_argument);
}

TEST(Options, RepeatedFlagLastWins)
{
    const char *argv[] = {"prog", "--radix=8", "--radix=16",
                          "--load", "0.1", "--load=0.9"};
    Options o(6, argv);
    EXPECT_EQ(o.getInt("radix", 0), 16);
    EXPECT_DOUBLE_EQ(o.getDouble("load", 0.0), 0.9);
}

TEST(Options, MissingValueAtEndBecomesBareFlag)
{
    // "--levels" with nothing after it cannot consume a value; it
    // parses as a bare flag, so typed accessors see an empty string.
    const char *argv[] = {"prog", "--levels"};
    Options o(2, argv);
    EXPECT_TRUE(o.has("levels"));
    EXPECT_EQ(o.get("levels", "x"), "");
    EXPECT_THROW(o.getInt("levels", 0), std::invalid_argument);
    EXPECT_THROW(o.getDouble("levels", 0.0), std::invalid_argument);
    EXPECT_TRUE(o.getBool("levels", false));  // bare flag = true
}

TEST(Options, FlagFollowedByFlagDoesNotStealValue)
{
    const char *argv[] = {"prog", "--fast", "--jobs=4"};
    Options o(3, argv);
    EXPECT_EQ(o.get("fast", "x"), "");
    EXPECT_EQ(o.getInt("jobs", 0), 4);
}

TEST(Options, UnknownFlagIsQueryableButAbsentOnesDefault)
{
    const char *argv[] = {"prog", "--definitely-not-a-real-option=3"};
    Options o(2, argv);
    EXPECT_TRUE(o.has("definitely-not-a-real-option"));
    EXPECT_FALSE(o.has("definitely"));
    EXPECT_EQ(o.getInt("other", 42), 42);
}

TEST(Options, NonNumericValueThrowsFromTypedAccessors)
{
    const char *argv[] = {"prog", "--radix=abc"};
    Options o(2, argv);
    EXPECT_THROW(o.getInt("radix", 0), std::invalid_argument);
    EXPECT_THROW(o.getDouble("radix", 0.0), std::invalid_argument);
    EXPECT_EQ(o.get("radix", ""), "abc");  // string access still works
}

/** The what() of the std::invalid_argument @p fn throws ("" if none). */
template <typename Fn>
std::string
invalidArgumentMessage(Fn fn)
{
    try {
        fn();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(Options, NumbersMustParseAsTheWholeValue)
{
    const char *argv[] = {"prog",        "--shards=4x", "--load=0.5x",
                          "--radix= 8",  "--big=99999999999999999999",
                          "--hex=0x10",  "--ok=-3",     "--frac=2.5e-1"};
    Options o(8, argv);
    EXPECT_THROW(o.getInt("shards", 1), std::invalid_argument);
    EXPECT_THROW(o.getDouble("shards", 1.0), std::invalid_argument);
    EXPECT_THROW(o.getDouble("load", 0.0), std::invalid_argument);
    EXPECT_THROW(o.getInt("radix", 0), std::invalid_argument);
    EXPECT_THROW(o.getInt("big", 0), std::invalid_argument);
    EXPECT_THROW(o.getInt("hex", 0), std::invalid_argument);
    EXPECT_THROW(o.getInt("frac", 0), std::invalid_argument);
    EXPECT_EQ(o.getInt("ok", 0), -3);
    EXPECT_DOUBLE_EQ(o.getDouble("ok", 0.0), -3.0);
    EXPECT_DOUBLE_EQ(o.getDouble("frac", 0.0), 0.25);
}

TEST(Options, BadNumberMessageNamesFlagAndValue)
{
    const char *argv[] = {"prog", "--shards", "abc", "--load=1.5q"};
    Options o(4, argv);
    std::string m = invalidArgumentMessage([&] { o.getInt("shards", 1); });
    EXPECT_NE(m.find("--shards"), std::string::npos) << m;
    EXPECT_NE(m.find("'abc'"), std::string::npos) << m;
    m = invalidArgumentMessage([&] { o.getDouble("load", 0.0); });
    EXPECT_NE(m.find("--load"), std::string::npos) << m;
    EXPECT_NE(m.find("'1.5q'"), std::string::npos) << m;
}

TEST(Options, JobsParsesFlagAndEnvironmentStrictly)
{
    const char *saved = std::getenv("RFC_JOBS");
    std::string restore = saved ? saved : "";

    const char *none[] = {"prog"};
    Options bare(1, none);
    ::setenv("RFC_JOBS", "3", 1);
    EXPECT_EQ(bare.jobs(), 3);
    ::setenv("RFC_JOBS", "3x", 1);
    std::string m = invalidArgumentMessage([&] { bare.jobs(); });
    EXPECT_NE(m.find("RFC_JOBS"), std::string::npos) << m;
    EXPECT_NE(m.find("'3x'"), std::string::npos) << m;
    ::setenv("RFC_JOBS", "abc", 1);
    EXPECT_THROW(bare.jobs(), std::invalid_argument);

    // The flag wins over the environment and parses the same way.
    const char *flag[] = {"prog", "--jobs=2"};
    EXPECT_EQ(Options(2, flag).jobs(), 2);
    const char *bad[] = {"prog", "--jobs=2 "};
    EXPECT_THROW(Options(2, bad).jobs(), std::invalid_argument);
    const char *huge[] = {"prog", "--jobs=4294967296"};
    EXPECT_THROW(Options(2, huge).jobs(), std::invalid_argument);

    if (saved)
        ::setenv("RFC_JOBS", restore.c_str(), 1);
    else
        ::unsetenv("RFC_JOBS");
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
