/**
 * @file
 * Minimal command-line option parser shared by benches and examples.
 *
 * Each program declares the flags it reads.  Parsing accepts
 * "--name=value", "--name value" and bare "--flag" forms of a declared
 * name and rejects every other flag, so a typo stops the run instead
 * of running a different experiment.  Flags are the only input: no
 * environment variable changes what a program runs.
 */
#ifndef RFC_UTIL_OPTIONS_HPP
#define RFC_UTIL_OPTIONS_HPP

#include <cstdint>
#include <limits>
#include <map>
#include <exception>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace rfc {

/** Parsed command-line options with typed, defaulted accessors. */
class Options
{
  public:
    /**
     * Parse argv against @p flags, the names (without "--") the
     * program reads.  Throws std::invalid_argument on malformed input
     * and on a flag outside @p flags; that message names the flag and
     * lists the declared ones.  Every accessor below throws
     * std::logic_error for a name outside @p flags.
     */
    Options(int argc, const char *const *argv,
            const std::vector<std::string> &flags);

    /** True if --name was supplied (with or without a value). */
    bool has(const std::string &name) const;

    /** String option with default. */
    std::string get(const std::string &name, const std::string &def) const;

    /**
     * Integer option with default.  Throws std::invalid_argument,
     * naming the flag and the value, unless the whole value parses
     * ("4x", "abc", " 4" and out-of-range values are rejected), and,
     * naming the range as well, unless lo <= value <= hi.
     */
    std::int64_t
    getInt(const std::string &name, std::int64_t def,
           std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
           std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;

    /** getInt in [lo, INT_MAX], narrowed to int. */
    int getIntAtLeast(const std::string &name, int def, int lo) const;

    /** Floating-point option with default; parsed as strictly as getInt. */
    double getDouble(const std::string &name, double def) const;

    /**
     * Boolean option: a bare flag, or 1/0, true/false, yes/no.  Throws
     * std::invalid_argument, naming the flag, on any other value.
     */
    bool getBool(const std::string &name, bool def) const;

    /**
     * Comma-separated list option ("a,b,c"), @p def when absent.
     * Throws std::invalid_argument on an empty item and, when @p valid
     * is non-empty, on an item outside it (the message lists the valid
     * names).
     */
    std::vector<std::string>
    getList(const std::string &name, const std::string &def,
            const std::vector<std::string> &valid = {}) const;

    /** List of numbers, each item parsed as strictly as getDouble. */
    std::vector<double> getDoubleList(const std::string &name,
                                      const std::string &def) const;

    /** True if @p name is one of the declared flags. */
    bool declares(const std::string &name) const;

    /**
     * Worker threads for parallel experiment grids: --jobs N, parsed
     * like getInt and within an int; absent gives 0, which selects
     * hardware concurrency.  The deterministic engine guarantees
     * identical results at any value.
     */
    int jobs() const;

  private:
    /**
     * The value given for @p name, nullptr when absent.  Throws
     * std::logic_error when @p name is not a declared flag.
     */
    const std::string *lookup(const std::string &name) const;

    std::set<std::string> flags_;
    std::map<std::string, std::string> values_;
};

/**
 * Thrown by the Options constructor when the command line holds a
 * bare --help; what() is the usage text, one declared flag per line.
 */
class HelpRequested : public std::exception
{
  public:
    explicit HelpRequested(std::string usage) : usage_(std::move(usage)) {}
    const char *what() const noexcept override { return usage_.c_str(); }

  private:
    std::string usage_;
};

/**
 * A program's entry: returns @p body(argc, argv), after mapping what
 * it throws to an exit status.  --help (HelpRequested) prints the
 * usage on stdout and returns 0; any other std::exception prints
 * "error: <what>" on stderr and returns 2, so a bad flag or input ends
 * in a message and status 2, never in an abort.
 */
int runMain(int argc, char **argv, int (*body)(int, char **));

} // namespace rfc

#endif // RFC_UTIL_OPTIONS_HPP
