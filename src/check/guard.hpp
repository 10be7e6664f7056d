/**
 * @file
 * Runtime conservation guards for the cycle-driven simulators.
 *
 * Configure with -DRFC_CHECK_INVARIANTS=ON and the simulators audit
 * themselves every cycle: packet conservation (injected = in-flight +
 * ejected), credit accounting (never negative, never above buffer
 * capacity, credits + occupied slots = capacity per VC), VC occupancy
 * bounds, and a no-progress deadlock watchdog.  The first violation is
 * recorded with cycle / switch / VC coordinates in a CheckContext the
 * test can interrogate.
 *
 * With the option OFF every guard sits behind
 * `if constexpr (invariantChecksEnabled())` and compiles out entirely -
 * the hot loops carry zero extra work.
 */
#ifndef RFC_CHECK_GUARD_HPP
#define RFC_CHECK_GUARD_HPP

#include <string>

namespace rfc {

/** True when the library was built with -DRFC_CHECK_INVARIANTS=ON. */
constexpr bool
invariantChecksEnabled()
{
#if defined(RFC_CHECK_INVARIANTS) && RFC_CHECK_INVARIANTS
    return true;
#else
    return false;
#endif
}

/** One recorded invariant violation with simulation coordinates. */
struct Violation
{
    std::string kind;    //!< e.g. "credit-overflow", "no-progress"
    long long cycle = 0;
    int sw = -1;         //!< switch id, -1 when not switch-local
    int vc = -1;         //!< virtual channel, -1 when not VC-specific
    std::string detail;

    /** "kind at cycle C (switch S, vc V): detail". */
    std::string str() const;
};

/**
 * Violation collector shared by the simulators' runtime guards.  The
 * first violation is kept verbatim (its coordinates are what a
 * debugging session needs); later ones only increment the counter, so
 * a broken invariant cannot flood memory during a long soak.
 */
class CheckContext
{
  public:
    /** Record a violation (keeps the first, counts the rest). */
    void report(const char *kind, long long cycle, int sw, int vc,
                std::string detail);

    /** Count @p n executed guard checks (proof of non-vacuity). */
    void countChecks(long long n = 1) { checks_ += n; }

    long long violations() const { return violations_; }
    long long checksPerformed() const { return checks_; }

    /** The first recorded violation (valid iff violations() > 0). */
    const Violation &first() const { return first_; }

    /** One-line status: "N violations / M checks" plus the first. */
    std::string summary() const;

  private:
    long long violations_ = 0;
    long long checks_ = 0;
    Violation first_;
};

} // namespace rfc

#endif // RFC_CHECK_GUARD_HPP
