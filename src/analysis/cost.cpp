#include "analysis/cost.hpp"

#include <cmath>

#include "analysis/scalability.hpp"
#include "clos/oft.hpp"
#include "clos/rfc.hpp"

namespace rfc {

CostPoint
cftCost(int radix, int levels)
{
    checkModelRadix("cftCost", radix, true);
    const long long m = radix / 2;
    long long inner = 2;  // N_i = 2 m^(l-1) for i < l
    for (int i = 1; i < levels; ++i)
        inner *= m;
    CostPoint c;
    c.levels = levels;
    c.terminals = cftTerminals(radix, levels);
    c.switches = inner * (levels - 1) + inner / 2;
    c.wires = inner * m * (levels - 1);
    c.ports = 2 * c.wires;
    return c;
}

CostPoint
oftCost(int q, int levels)
{
    const long long n = static_cast<long long>(q) * q + q + 1;
    long long inner = 2;  // N_i = 2 n^(l-1) for i < l
    for (int i = 1; i < levels; ++i)
        inner *= n;
    CostPoint c;
    c.levels = levels;
    c.terminals = oftTerminals(q, levels);
    c.switches = inner * (levels - 1) + inner / 2;
    c.wires = inner * (q + 1) * (levels - 1);
    c.ports = 2 * c.wires;
    return c;
}

CostPoint
rfcCost(int radix, int levels, long long n1)
{
    checkModelRadix("rfcCost", radix, true);
    const long long m = radix / 2;
    CostPoint c;
    c.levels = levels;
    c.terminals = n1 * m;
    c.switches = n1 * (levels - 1) + n1 / 2;
    c.wires = n1 * m * (levels - 1);
    c.ports = 2 * c.wires;
    return c;
}

CostPoint
rrnCost(int radix, int diameter, long long switches)
{
    checkModelRadix("rrnCost", radix, false);
    int delta = static_cast<int>(std::floor(
        static_cast<double>(radix) * diameter / (diameter + 1)));
    CostPoint c;
    c.levels = diameter;
    c.terminals = switches * (radix - delta);
    c.switches = switches;
    c.wires = switches * delta / 2;
    c.ports = 2 * c.wires;
    return c;
}

CostPoint
cftCostFor(long long terminals, int radix)
{
    return cftCost(radix, cftLevelsFor(terminals, radix));
}

CostPoint
oftCostFor(long long terminals, int radix)
{
    int q = oftOrderFromRadix(radix);
    int l = 1;
    while (oftTerminals(q, l) < terminals)
        ++l;
    return oftCost(q, l);
}

CostPoint
rfcCostFor(long long terminals, int radix)
{
    checkModelRadix("rfcCostFor", radix, true);
    const long long m = radix / 2;
    long long n1 = (terminals + m - 1) / m;
    if (n1 % 2)
        ++n1;
    int levels = 2;
    while (rfcMaxLeaves(radix, levels) < n1)
        ++levels;
    return rfcCost(radix, levels, n1);
}

CostPoint
rrnCostFor(long long terminals, int radix)
{
    int d = rrnDiameterFor(terminals, radix);
    int delta = static_cast<int>(std::floor(
        static_cast<double>(radix) * d / (d + 1)));
    int hosts = radix - delta;
    long long n = (terminals + hosts - 1) / hosts;
    return rrnCost(radix, d, n);
}

} // namespace rfc
