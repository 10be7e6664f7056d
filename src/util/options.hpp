/**
 * @file
 * Minimal command-line option parser shared by benches and examples.
 *
 * Accepts "--name=value", "--name value" and bare "--flag" forms.  The
 * environment variable RFC_FULL=1 switches every bench from its sandbox
 * default scale to the paper-scale experiment; it is surfaced here as the
 * implicit boolean option "full".
 */
#ifndef RFC_UTIL_OPTIONS_HPP
#define RFC_UTIL_OPTIONS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rfc {

/** Parsed command-line options with typed, defaulted accessors. */
class Options
{
  public:
    /** Parse argv; throws std::invalid_argument on malformed input. */
    Options(int argc, const char *const *argv);

    /** True if --name was supplied (with or without a value). */
    bool has(const std::string &name) const;

    /** String option with default. */
    std::string get(const std::string &name, const std::string &def) const;

    /**
     * Integer option with default.  Throws std::invalid_argument,
     * naming the flag and the value, unless the whole value parses
     * ("4x", "abc", " 4" and out-of-range values are rejected).
     */
    std::int64_t getInt(const std::string &name, std::int64_t def) const;

    /**
     * getInt narrowed to int: throws std::invalid_argument, naming the
     * flag, the value and the range, unless lo <= value <= INT_MAX, so
     * no value wraps in the cast.
     */
    int getIntAtLeast(const std::string &name, int def, int lo) const;

    /** Floating-point option with default; parsed as strictly as getInt. */
    double getDouble(const std::string &name, double def) const;

    /** Boolean option: bare flag, or values 0/1/true/false. */
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

    /** Paper-scale switch: --full flag or env RFC_FULL=1. */
    bool fullScale() const;

    /**
     * Worker threads for parallel experiment grids: --jobs N (or env
     * RFC_JOBS).  Defaults to hardware concurrency; the deterministic
     * engine guarantees identical results at any value.  Both sources
     * parse like getInt and must fit an int.
     */
    int jobs() const;

  private:
    std::map<std::string, std::string> values_;
};

} // namespace rfc

#endif // RFC_UTIL_OPTIONS_HPP
