/**
 * @file
 * Resiliency experiments (Section 7: Table 3 and Figure 11).
 *
 * Two fault metrics over random link removal:
 *  - disconnection: fraction of inter-switch links whose removal first
 *    disconnects the switch graph (computed exactly per trial with a
 *    reverse union-find sweep), and
 *  - up/down survival: largest fraction of removed links for which
 *    every leaf pair still has a common ancestor (binary search over a
 *    random removal order; routability is monotone in the removals).
 *
 * Each call draws one removal order.  table3_disconnect and
 * fig11_updown_faults average many through the experiment engine's
 * map(), one derived seed per trial.
 */
#ifndef RFC_ANALYSIS_RESILIENCY_HPP
#define RFC_ANALYSIS_RESILIENCY_HPP

#include "clos/folded_clos.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace rfc {

/**
 * Fraction of links removed (uniformly at random, one by one) when the
 * graph first disconnects, for one random order.
 */
double disconnectionFraction(const Graph &g, Rng &rng);

/**
 * Largest fraction of links removable (in one random order) while
 * up/down routing survives.
 */
double updownToleranceFraction(const FoldedClos &fc, Rng &rng);

} // namespace rfc

#endif // RFC_ANALYSIS_RESILIENCY_HPP
