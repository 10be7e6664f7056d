/**
 * @file
 * Random Folded Clos (RFC) construction - the paper's core contribution.
 *
 * An RFC with l levels, radix R and N1 leaf switches keeps the CFT's
 * level structure (levels 1..l-1 have N1 switches, level l has N1/2)
 * but wires each pair of adjacent levels with a uniformly random simple
 * biregular bipartite graph (Listing 2 of the paper).  Theorem 4.2
 * gives the sharp radix threshold below which up/down routing (common
 * ancestors for every leaf pair) stops existing; at the threshold the
 * success probability is e^{-1}, so the builder regenerates until a
 * routable instance appears.
 */
#ifndef RFC_CLOS_RFC_HPP
#define RFC_CLOS_RFC_HPP

#include "clos/folded_clos.hpp"
#include "util/rng.hpp"

namespace rfc {

/** Result of an RFC construction attempt. */
struct RfcBuildResult
{
    FoldedClos topology;   //!< the generated network
    int attempts = 0;      //!< generations needed (>= 1)
    bool routable = false; //!< true iff up/down routing exists
};

/**
 * Generate one random folded Clos wiring (no routability acceptance).
 *
 * @param radix Switch radix R (even).
 * @param levels Number of levels l >= 2.
 * @param n1 Leaf switches (even; levels 1..l-1 get n1, level l n1/2).
 * @param rng Random source.
 */
FoldedClos buildRfcUnchecked(int radix, int levels, int n1, Rng &rng);

/**
 * Generate RFCs until one admits up/down routing (or attempts are
 * exhausted).  At the Theorem 4.2 threshold this takes e ~ 2.72
 * attempts on average.
 *
 * @param max_attempts Upper bound on generations (default 200).
 * @return The last generated topology plus acceptance metadata.
 */
RfcBuildResult buildRfc(int radix, int levels, int n1, Rng &rng,
                        int max_attempts = 200);

/**
 * Largest leaf count N1 admitting up/down routing w.h.p. for the given
 * radix and level count, from the paper's simplified threshold
 * (R/2)^(2(l-1)) = N1 ln N1.  The returned N1 is even.
 * @throws std::overflow_error when the threshold exceeds int range
 *         (e.g. R=54, l=5); use rfcMaxLeavesLL on the scale path.
 */
int rfcMaxLeaves(int radix, int levels);

/** 64-bit rfcMaxLeaves for thresholds beyond int range. */
long long rfcMaxLeavesLL(int radix, int levels);

/** Theorem 4.2's prediction for one (R, l, N1). */
struct RfcThresholdPrediction
{
    double x = 0.0;          //!< offset implied by (R, l, N1)
    double p_routable = 0.0; //!< success probability e^{-e^{-x}}
};

/**
 * Theorem 4.2 forward map: the offset x solving
 * (R/2)^(2(l-1)) = (N1/2) * (ln C(N1,2) + x) for radix R, levels l and
 * N1 leaves, and the predicted probability e^{-e^{-x}} that a random
 * wiring admits up/down routing.
 */
RfcThresholdPrediction rfcThresholdPrediction(int radix, int levels, int n1);

} // namespace rfc

#endif // RFC_CLOS_RFC_HPP
