/**
 * @file
 * Topology serialization: a plain-text adjacency format for archiving
 * and exchanging generated networks (the random wirings are otherwise
 * only reproducible with the same binary + seed), plus Graphviz DOT
 * export for small-instance visualization (Figures 1-4 style).
 *
 * Format (line oriented, '#' comments allowed):
 *
 *   rfc-topology 1
 *   name <string>
 *   radix <R>
 *   terminals-per-leaf <n>
 *   levels <l> <N_1> ... <N_l>
 *   links <count>
 *   <lower> <upper>          (one per line, global switch ids)
 *   end
 */
#ifndef RFC_CLOS_SERIALIZE_HPP
#define RFC_CLOS_SERIALIZE_HPP

#include <iosfwd>
#include <string>

#include "clos/folded_clos.hpp"

namespace rfc {

/** Write @p fc to @p os in the adjacency format above. */
void saveTopology(const FoldedClos &fc, std::ostream &os);

/**
 * Parse a topology previously written by saveTopology.  Every field is
 * a whole number in range, and nothing may follow a line's fields
 * except a comment.
 * @throws std::runtime_error on malformed input, with a message naming
 *         the offending line (its number and text).
 */
FoldedClos loadTopology(std::istream &is);

/** Graphviz DOT export (levels as ranks); intended for small networks. */
void writeDot(const FoldedClos &fc, std::ostream &os);

} // namespace rfc

#endif // RFC_CLOS_SERIALIZE_HPP
