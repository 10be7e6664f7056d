/**
 * @file
 * Cost and expandability models (Section 5, Figure 7).
 *
 * Cost is measured in switch counts, inter-switch wires and network
 * ports (ports = 2 * wires).  CFT and OFT grow in steps - each step is
 * a weak expansion adding a level - while RFC and RRN grow almost
 * linearly (strong expansion).  Radices are checked as in
 * analysis/scalability.hpp (std::invalid_argument).
 */
#ifndef RFC_ANALYSIS_COST_HPP
#define RFC_ANALYSIS_COST_HPP

namespace rfc {

/** Cost summary of a network sized for a given terminal count. */
struct CostPoint
{
    long long terminals = 0;  //!< terminals the configuration supports
    long long switches = 0;
    long long wires = 0;      //!< inter-switch links
    long long ports = 0;      //!< 2 * wires
    int levels = 0;           //!< or diameter for direct networks
};

/** Full CFT of given radix and levels. */
CostPoint cftCost(int radix, int levels);

/** Full OFT of given order and levels. */
CostPoint oftCost(int q, int levels);

/** RFC with n1 leaves (levels 1..l-1: n1 switches, level l: n1/2). */
CostPoint rfcCost(int radix, int levels, long long n1);

/** RRN with n switches at diameter d (Delta = R d/(d+1) network ports). */
CostPoint rrnCost(int radix, int diameter, long long switches);

/** Smallest CFT (full levels) covering @p terminals: the Fig 7 step. */
CostPoint cftCostFor(long long terminals, int radix);

/** Smallest OFT covering @p terminals with q = R/2-1. */
CostPoint oftCostFor(long long terminals, int radix);

/** RFC sized exactly for @p terminals (levels from Theorem 4.2). */
CostPoint rfcCostFor(long long terminals, int radix);

/** RRN sized exactly for @p terminals (diameter from Delta^D=2NlnN). */
CostPoint rrnCostFor(long long terminals, int radix);

} // namespace rfc

#endif // RFC_ANALYSIS_COST_HPP
