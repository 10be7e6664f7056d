/**
 * @file
 * Structural and routing invariant validators, usable from tests and
 * tools alike.
 *
 * Each validator returns a CheckResult whose message pinpoints the
 * first violation (switch / level / leaf-pair coordinates), so a
 * property-based run can shrink to a minimal counterexample and still
 * say *what* broke.  The checks mirror the paper's claims:
 *
 *  - Definition 3.1: level-structured, mirrored, simple biregular
 *    inter-level wiring (checkLevelStructure / checkBipartiteRegular);
 *  - Theorem 4.2: common-ancestor coverage, cross-validated against an
 *    independent ancestor computation (checkCommonAncestorCoverage);
 *  - Section 4.1: up/down tables are consistent - symmetric, minimal,
 *    bounded by 2(l-1) hops, and every advertised next hop makes
 *    progress (checkUpDownConsistency, checkForwardingTables);
 *  - serialization: save -> load -> structural equality
 *    (checkRoundTrip), valid for pristine, expanded and faulted
 *    networks alike.
 */
#ifndef RFC_CHECK_INVARIANTS_HPP
#define RFC_CHECK_INVARIANTS_HPP

#include "check/prop.hpp"
#include "clos/folded_clos.hpp"
#include "routing/updown.hpp"
#include "util/rng.hpp"

namespace rfc {

/**
 * Level structure (Definition 3.1 shape): every up link points exactly
 * one level higher, every link is mirrored in the partner's down list,
 * and all ids are in range.  Holds for faulted and expanded networks.
 */
CheckResult checkLevelStructure(const FoldedClos &fc);

/**
 * Biregular k-regularity per level: switches below the top have R/2 up
 * links (and R/2 down links - terminals for leaves), top switches have
 * R down links and no up links, and the inter-level graph is simple
 * (no duplicate links).  Pristine and expanded networks only; fault
 * injection intentionally breaks this.
 */
CheckResult checkBipartiteRegular(const FoldedClos &fc);

/** Structural equality up to adjacency-list order, with metadata. */
CheckResult sameTopology(const FoldedClos &a, const FoldedClos &b);

/** Serialize -> deserialize -> structural equality. */
CheckResult checkRoundTrip(const FoldedClos &fc);

/**
 * Theorem 4.2 coverage: for every leaf, the oracle's full-ascent reach
 * set equals an independently computed common-ancestor set (BFS over
 * up links + bottom-up descendant sets), and routable() agrees with
 * all-pairs coverage.
 */
CheckResult checkCommonAncestorCoverage(const FoldedClos &fc,
                                        const UpDownOracle &oracle);

/**
 * Up/down table consistency over @p sample_pairs random leaf pairs
 * (all pairs when the count exceeds the sample):
 *
 *  - leafDistance is symmetric, even, and bounded by 2(l-1);
 *  - unreachability is symmetric;
 *  - a greedy walk over upChoices()/downChoices() ascends exactly
 *    minUps() hops (each one decreasing the remaining ascent by one -
 *    minimality), then descends monotonically to the destination, so
 *    the realized path length equals leafDistance() (and the
 *    up*down* shape makes the channel dependency acyclic);
 *  - every advertised choice index is a valid port.
 */
CheckResult checkUpDownConsistency(const FoldedClos &fc,
                                   const UpDownOracle &oracle,
                                   int sample_pairs, Rng &rng);

/**
 * Forwarding-table rows match the oracle exactly: per switch and
 * destination leaf, every port mask streamed by forEachTableRow equals
 * the oracle's minimal up/down choices, found by a per-entry scan
 * independent of the rows' word-parallel construction.
 */
CheckResult checkForwardingTables(const FoldedClos &fc,
                                  const UpDownOracle &oracle);

/**
 * All structural invariants a freshly generated (unfaulted) topology
 * must satisfy: level structure, biregularity, round-trip.
 */
CheckResult checkAllStructural(const FoldedClos &fc);

} // namespace rfc

#endif // RFC_CHECK_INVARIANTS_HPP
