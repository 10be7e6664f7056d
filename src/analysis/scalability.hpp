/**
 * @file
 * Closed-form scalability and diameter models (Sections 4.2-4.3).
 *
 * For each topology family the paper derives how many compute nodes T a
 * radix-R switch supports at a given diameter/level count:
 *
 *   CFT:  T = 2 (R/2)^l                     (diameter 2(l-1))
 *   OFT:  T = 2 (q+1) (q^2+q+1)^(l-1),  R = 2(q+1)
 *   RFC:  T = N1 R/2 with (R/2)^(2(l-1)) = N1 ln N1
 *   RRN:  T = N Delta / D with Delta^D = 2 N ln N, R = Delta (1 + 1/D)
 *
 * These feed Figure 5 (diameter vs terminals at R = 36) and Figure 6
 * (terminals vs radix for levels 2-4).
 *
 * Every model that takes a radix throws std::invalid_argument for one
 * below 4, whose capacity stops growing with levels or diameter (a
 * level-count search would never end), and the folded-Clos models
 * (CFT, OFT, RFC) for an odd one, as buildCft does: R/2 would round
 * down and silently model R - 1.  RRN switches may have any radix.
 */
#ifndef RFC_ANALYSIS_SCALABILITY_HPP
#define RFC_ANALYSIS_SCALABILITY_HPP

namespace rfc {

/**
 * Throw std::invalid_argument naming @p fn unless @p radix >= 4 and,
 * for a folded-Clos model (@p folded), even.
 */
void checkModelRadix(const char *fn, int radix, bool folded);

/** CFT terminals: 2 (R/2)^l. */
long long cftTerminals(int radix, int levels);

/** Smallest level count whose CFT holds @p terminals; diameter 2(l-1). */
int cftLevelsFor(long long terminals, int radix);

/** RFC maximum terminals at the Theorem 4.2 threshold: N1 * R/2. */
long long rfcMaxTerminals(int radix, int levels);

/** Smallest RFC level count (>= 2) holding @p terminals w.h.p. */
int rfcLevelsFor(long long terminals, int radix);

/**
 * RRN (Jellyfish-style random regular network) maximum switches N for
 * diameter D: Delta^D = 2 N ln N with Delta = floor(R D / (D+1)).
 */
long long rrnMaxSwitches(int radix, int diameter);

/** RRN maximum terminals: N * (R - Delta) with Delta = R*D/(D+1). */
long long rrnMaxTerminals(int radix, int diameter);

/** Smallest diameter an RRN with radix R needs for @p terminals. */
int rrnDiameterFor(long long terminals, int radix);

/** Smallest diameter (even, = 2(l-1)) an RFC with radix R needs. */
int rfcDiameterFor(long long terminals, int radix);

/** Diameter of the smallest CFT with radix R holding @p terminals. */
int cftDiameterFor(long long terminals, int radix);

/** Diameter of the smallest OFT with radix R holding @p terminals. */
int oftDiameterFor(long long terminals, int radix);

/** OFT order from radix: q = R/2 - 1 (must be a prime power to build). */
int oftOrderFromRadix(int radix);

} // namespace rfc

#endif // RFC_ANALYSIS_SCALABILITY_HPP
