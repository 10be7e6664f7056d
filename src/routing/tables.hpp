/**
 * @file
 * Forwarding-table metering: the deployable artifact of up/down
 * routing, priced without being stored.
 *
 * The UpDownOracle answers next-hop queries from reachability bitsets;
 * real switches need explicit per-destination port lists - one table
 * per switch mapping destination leaf to the set of minimal up/down
 * output ports.  Their footprint is the practical cost the paper's
 * "simple ECMP routing" claim rests on.  This module streams every
 * switch's table row from the oracle and keeps only the counts; no
 * packet or flow is routed through it (both read the oracle).
 *
 * The metered encoding is compressed: identical port sets are
 * hash-consed into one global pool (at a non-leaf switch most
 * destinations below a given subtree share a single ECMP set), and the
 * switches x leaves entry matrix is encoded per switch by whichever of
 * two schemes is smaller:
 *
 *  - dictionary mode (width 1, 2 or 4): the switch keeps a local list
 *    of the pool sets it references and entries store local indices -
 *    wins when destinations share sets (upper levels, all of a CFT);
 *  - direct mode (width 3): entries store 24-bit global pool ids with
 *    no local dictionary - wins at RFC leaf switches, where almost
 *    every destination has a distinct ECMP set and a dictionary would
 *    cost more than it saves.
 *
 * memoryBytes() is the exact size of that encoding's arrays (2-byte
 * pool ports, 8-byte offsets, 4-byte dictionary ids, the entries and
 * one width byte per switch), computed rather than allocated;
 * denseMemoryBytes() is the uncompressed figure for comparison.
 *
 * forEachTableRow reads the oracle's reach bitsets a word (64 leaves)
 * at a time and builds one switch row at a time: each leaf's port set
 * is a bit mask of ceil(ports / 64) words, and every alive port ORs its
 * bit into the leaves its neighbour reaches at the right ascent budget.
 * A row costs O(ports * levels * leaves / 64) word operations and one
 * bit operation per port (one per run of parents with equal reach,
 * which covers all of a fat-tree switch's parents).  The meter walks
 * each row run by run (a run is a stretch of leaves with equal masks):
 * one lookup per run in a per-switch table dedupes the switch's sets,
 * one popcount per distinct set prices it, and only the switch's
 * distinct sets are looked up in the global set, whose slots hold
 * their keys inline.  Pool ids follow first occurrence in (switch,
 * leaf) order.
 * check/invariants.cpp compares every streamed row with the per-entry
 * oracle scan (minUps, then upChoices or downChoices).  ports() reads
 * one entry from UpDownOracle::nextHops, the mask form the engine
 * routes by, at any port count.
 */
#ifndef RFC_ROUTING_TABLES_HPP
#define RFC_ROUTING_TABLES_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "clos/folded_clos.hpp"
#include "routing/updown.hpp"

namespace rfc {

/**
 * Visitor of one switch's table row: @p masks holds numLeaves() port
 * masks of @p words words each, leaf-major; bit p of a leaf's mask is
 * set iff port p is a minimal next hop toward that leaf.
 */
using TableRowFn =
    std::function<void(int sw, const std::uint64_t *masks, int words)>;

/**
 * Build every switch's row of @p fc's up/down forwarding table from
 * @p oracle, in switch order, and hand each to @p row.  Port numbering
 * per switch: ports [0, up.size()) go to parents in up() order; ports
 * [up.size(), up.size()+down.size()) go to children in down() order.
 * At a leaf, the leaf itself has an empty set (delivery is local).
 * The masks are reused: @p row must copy what it keeps.
 */
void forEachTableRow(const FoldedClos &fc, const UpDownOracle &oracle,
                     const TableRowFn &row);

/**
 * Size of explicit ECMP forwarding tables for every switch, metered
 * from the rows of forEachTableRow.  Keeps pointers to the topology
 * and oracle for ports(): both must outlive the meter.
 */
class ForwardingTables
{
  public:
    /** Meter the tables of @p fc under oracle-minimal up/down routes. */
    ForwardingTables(const FoldedClos &fc, const UpDownOracle &oracle);
    ForwardingTables(FoldedClos &&, const UpDownOracle &) = delete;
    ForwardingTables(const FoldedClos &, UpDownOracle &&) = delete;
    ForwardingTables(FoldedClos &&, UpDownOracle &&) = delete;

    /**
     * Minimal next-hop ports at @p sw toward @p dest_leaf, ascending:
     * the set bits of the oracle's nextHops mask.
     */
    std::vector<std::uint16_t> ports(int sw, int dest_leaf) const;

    /** Number of (switch, destination) entries with at least one port. */
    long long populatedEntries() const { return populated_; }

    /** Total port references (the ECMP fan-out mass). */
    long long totalPorts() const { return total_ports_; }

    /** Exact bytes of the compressed encoding's arrays. */
    long long memoryBytes() const { return memory_bytes_; }

    /**
     * Uncompressed-table footprint for the same contents (2-byte ports
     * plus a 4-byte offset per entry) - the compression baseline.
     */
    long long
    denseMemoryBytes() const
    {
        return denseBytesFor(switches_, leaves_, total_ports_);
    }

    /** denseMemoryBytes() / memoryBytes(). */
    double compressionRatio() const;

    /** Distinct port sets across all switches (pool size). */
    long long uniqueSets() const { return unique_sets_; }

    /** The dense formula at arbitrary scale (64-bit safe). */
    static long long
    denseBytesFor(long long switches, long long leaves,
                  long long total_ports)
    {
        return total_ports * 2 + switches * leaves * 4;
    }

  private:
    const FoldedClos *fc_;
    const UpDownOracle *oracle_;
    long long switches_ = 0;
    long long leaves_ = 0;
    long long populated_ = 0;
    long long total_ports_ = 0;
    long long unique_sets_ = 0;
    long long memory_bytes_ = 0;
};

} // namespace rfc

#endif // RFC_ROUTING_TABLES_HPP
