/**
 * @file
 * Bisection bandwidth estimation (Section 4.2 of the paper).
 *
 * Provides the Bollobas analytic lower bounds the paper quotes for random
 * regular networks and RFCs, together with an empirical randomized
 * partition-refinement estimator (an upper bound on the true min cut).
 */
#ifndef RFC_GRAPH_BISECTION_HPP
#define RFC_GRAPH_BISECTION_HPP

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace rfc {

/** Bollobas isoperimetric lower bound i(G) >= d/2 - sqrt(d ln 2). */
double bollobasIsoperimetric(double degree);

/** Lower bound on the bisection width of a Delta-regular RRN (Sec 4.2). */
double bollobasBisectionRrn(double switches, double degree);

/**
 * Normalized bisection bandwidth: bisection links divided by (terminals
 * in one half times the average number of bisection traversals per
 * path).  The paper computes 1.0 for CFT, ~0.88 for RRN, ~0.80 for the
 * 2-level RFC and ~0.86 for the 3-level RFC at R=36.
 */
double normalizedBisectionRrn(double degree, double hostsPerSwitch);
double normalizedBisectionRfc(double radix, int levels);

/**
 * Empirical bisection estimate: randomized balanced bipartitions refined
 * by greedy vertex swaps, best of @p restarts restarts.  Returns the
 * number of cut edges (an upper bound on the true bisection width).
 */
std::size_t empiricalBisection(const Graph &g, int restarts, Rng &rng);

/**
 * As `empiricalBisection`, but also returns the winning partition in
 * @p side_out (side_out[v] in {0,1}; sides are balanced to within one
 * vertex).  Lets callers reuse the discovered near-minimal cut, e.g. as
 * a `cutThroughputBound` partition for the flow solver.
 */
std::size_t empiricalBisectionParts(const Graph &g, int restarts, Rng &rng,
                                    std::vector<char> &side_out);

} // namespace rfc

#endif // RFC_GRAPH_BISECTION_HPP
