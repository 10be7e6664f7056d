/**
 * @file
 * Orthogonal fat-tree (OFT) builders.
 *
 * The l-level OFT of prime-power order q (Valerio et al.) is the
 * radix-regular fat-tree with R = 2(q+1), arities
 * k_1 = ... = k_{l-1} = q^2+q+1 and k_l = 2(q^2+q+1).  The 2-level OFT
 * meets the Kathareios et al. upper bound on terminals for a diameter-2
 * indirect network; minimal routes in it are unique.
 *
 * Wiring. 2-level: two copies of the PG(2, q) points form the leaves,
 * the lines form the roots, and incidence is the wiring.  3-level: two
 * sides of q^2+q+1 subtrees; each subtree is a point/line incidence
 * block; roots form the Lines x Lines grid, and the level-2 switch
 * (side 0, subtree t, line L) connects to roots {(L, L') : L' through
 * point t} (mirrored on side 1).  This reconstruction preserves the
 * OFT's defining properties - counts, radix-regularity, diameter
 * 2(l-1) and unique minimal routes - which tests verify.
 */
#ifndef RFC_CLOS_OFT_HPP
#define RFC_CLOS_OFT_HPP

#include "clos/folded_clos.hpp"

namespace rfc {

/**
 * Build the l-level OFT of order q.
 * @param q Prime power (projective plane order).
 * @param levels 2 or 3.
 * @return Topology with 2(q+1)(q^2+q+1)^(l-1) terminals, radix 2(q+1).
 */
FoldedClos buildOft(int q, int levels);

/** Terminals of the l-level OFT of order q: 2(q+1)(q^2+q+1)^(l-1). */
long long oftTerminals(int q, int levels);

} // namespace rfc

#endif // RFC_CLOS_OFT_HPP
