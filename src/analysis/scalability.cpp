#include "analysis/scalability.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "clos/oft.hpp"
#include "clos/rfc.hpp"

namespace rfc {

void
checkModelRadix(const char *fn, int radix, bool folded)
{
    if (radix < 4 || (folded && radix % 2 != 0))
        throw std::invalid_argument(
            std::string(fn) + ": radix must be " +
            (folded ? "even and " : "") + ">= 4, got " +
            std::to_string(radix));
}

long long
cftTerminals(int radix, int levels)
{
    checkModelRadix("cftTerminals", radix, true);
    long long t = 2;
    for (int i = 0; i < levels; ++i)
        t *= radix / 2;
    return t;
}

int
cftLevelsFor(long long terminals, int radix)
{
    int l = 1;
    while (cftTerminals(radix, l) < terminals)
        ++l;
    return l;
}

long long
rfcMaxTerminals(int radix, int levels)
{
    checkModelRadix("rfcMaxTerminals", radix, true);
    // rfcMaxLeavesLL: the threshold exceeds int range already at
    // moderate radix/level combinations (R=54, l=5 -> N1 ~ 1.2e10),
    // and the levels-for loops below probe exactly that regime.
    return rfcMaxLeavesLL(radix, levels) * (radix / 2);
}

int
rfcLevelsFor(long long terminals, int radix)
{
    int l = 2;
    while (rfcMaxTerminals(radix, l) < terminals)
        ++l;
    return l;
}

long long
rrnMaxSwitches(int radix, int diameter)
{
    checkModelRadix("rrnMaxSwitches", radix, false);
    double delta = std::floor(static_cast<double>(radix) * diameter /
                              (diameter + 1));
    double target = std::pow(delta, diameter);
    // Solve 2 N ln N = target.
    double lo = 2.0, hi = 2.0;
    while (2.0 * hi * std::log(hi) < target)
        hi *= 2.0;
    for (int it = 0; it < 200; ++it) {
        double mid = (lo + hi) / 2.0;
        if (2.0 * mid * std::log(mid) < target)
            lo = mid;
        else
            hi = mid;
    }
    return static_cast<long long>(lo);
}

long long
rrnMaxTerminals(int radix, int diameter)
{
    long long n = rrnMaxSwitches(radix, diameter);
    int delta = static_cast<int>(
        std::floor(static_cast<double>(radix) * diameter / (diameter + 1)));
    int hosts = radix - delta;
    return n * hosts;
}

int
rrnDiameterFor(long long terminals, int radix)
{
    int d = 1;
    while (rrnMaxTerminals(radix, d) < terminals)
        ++d;
    return d;
}

int
rfcDiameterFor(long long terminals, int radix)
{
    return 2 * (rfcLevelsFor(terminals, radix) - 1);
}

int
cftDiameterFor(long long terminals, int radix)
{
    return 2 * (cftLevelsFor(terminals, radix) - 1);
}

int
oftOrderFromRadix(int radix)
{
    checkModelRadix("oftOrderFromRadix", radix, true);
    return radix / 2 - 1;
}

int
oftDiameterFor(long long terminals, int radix)
{
    int q = oftOrderFromRadix(radix);
    int l = 1;
    while (oftTerminals(q, l) < terminals)
        ++l;
    return 2 * (l - 1);
}

} // namespace rfc
