/**
 * @file
 * Forwarding-table generation: the deployable artifact of up/down
 * routing.
 *
 * The UpDownOracle answers next-hop queries from reachability bitsets;
 * real switches need explicit per-destination port lists.  This module
 * materializes them - one table per switch mapping destination leaf to
 * the set of minimal up/down output ports - and reports the memory
 * footprint, which is the practical cost the paper's "simple ECMP
 * routing" claim rests on.
 *
 * Storage is compressed: identical port sets are hash-consed into one
 * global pool (at a non-leaf switch most destinations below a given
 * subtree share a single ECMP set), and the switches x leaves entry
 * matrix is encoded per switch by whichever of two schemes is smaller:
 *
 *  - dictionary mode (width 1, 2 or 4): the switch keeps a local list
 *    of the pool sets it references and entries store local indices -
 *    wins when destinations share sets (upper levels, all of a CFT);
 *  - direct mode (width 3): entries store 24-bit global pool ids with
 *    no local dictionary - wins at RFC leaf switches, where almost
 *    every destination has a distinct ECMP set and a dictionary would
 *    cost more than it saves.
 *
 * The ports(sw, dest) API is unchanged (now span-returning), and
 * memoryBytes() is the measured size of the compressed arrays rather
 * than an estimate; denseMemoryBytes() preserves the historical
 * uncompressed figure for comparison.
 *
 * Construction reads the oracle's reach bitsets a word (64 leaves) at
 * a time and builds one switch row at a time: each leaf's port set is a
 * bit mask of ceil(ports / 64) words, and every alive port ORs its bit
 * into the leaves its neighbour reaches at the right ascent budget.  A
 * row costs O(ports * levels * leaves / 64) word operations, one bit
 * operation per stored port (one per run of parents with equal reach,
 * which covers all of a fat-tree switch's parents), and one hash
 * lookup per leaf whose set differs from the previous leaf's.  Pool and
 * dictionary ids are assigned in first-occurrence order, so the arrays
 * are those of the per-entry oracle scan (minUps, then upChoices or
 * downChoices), which check/invariants.cpp keeps as the reference.
 */
#ifndef RFC_ROUTING_TABLES_HPP
#define RFC_ROUTING_TABLES_HPP

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "clos/folded_clos.hpp"
#include "routing/updown.hpp"
#include "util/span.hpp"

namespace rfc {

/**
 * Explicit ECMP forwarding tables for every switch.
 *
 * Port numbering per switch: ports [0, up.size()) go to parents in
 * up() order; ports [up.size(), up.size()+down.size()) go to children
 * in down() order.  At a leaf, a destination equal to the leaf itself
 * has no entry (delivery is local).
 */
class ForwardingTables
{
  public:
    /** Build tables for @p fc using oracle-minimal up/down routes. */
    ForwardingTables(const FoldedClos &fc, const UpDownOracle &oracle);

    /**
     * Minimal next-hop ports at @p sw toward @p dest_leaf.  The view
     * points into the shared pool (or a setPorts override) and stays
     * valid until the next setPorts call.
     */
    Span<std::uint16_t>
    ports(int sw, int dest_leaf) const
    {
        if (!overrides_.empty()) {
            auto it = overrides_.find(entryKey(sw, dest_leaf));
            if (it != overrides_.end())
                return {it->second.data(), it->second.size()};
        }
        const std::uint32_t gid = entryGid(sw, dest_leaf);
        return {pool_ports_.data() + pool_off_[gid],
                static_cast<std::size_t>(pool_off_[gid + 1] -
                                         pool_off_[gid])};
    }

    /**
     * Overwrite one entry's port list (fault-injection / mutation
     * hook: lets experiments and the checker tests model a corrupted
     * or stale table entry).  Copy-on-write: the shared pool is left
     * untouched and the entry is redirected to a private list.  Keeps
     * populatedEntries()/totalPorts() consistent.
     */
    void setPorts(int sw, int dest_leaf, std::vector<std::uint16_t> ports);

    /** Number of (switch, destination) entries with at least one port. */
    long long populatedEntries() const { return populated_; }

    /** Total stored port references (the ECMP fan-out mass). */
    long long totalPorts() const { return total_ports_; }

    /** Measured bytes held by the compressed table arrays. */
    long long memoryBytes() const;

    /**
     * Uncompressed-table footprint for the same contents (2-byte ports
     * plus a 4-byte offset per entry) - the figure the dense
     * representation used to report, kept as the compression baseline.
     */
    long long
    denseMemoryBytes() const
    {
        return denseBytesFor(switches_, leaves_, total_ports_);
    }

    /** denseMemoryBytes() / memoryBytes(). */
    double compressionRatio() const;

    /** Distinct port sets across all switches (pool size). */
    long long
    uniqueSets() const
    {
        return static_cast<long long>(pool_off_.size()) - 1;
    }

    /** The dense formula at arbitrary scale (64-bit safe). */
    static long long
    denseBytesFor(long long switches, long long leaves,
                  long long total_ports)
    {
        return total_ports * 2 + switches * leaves * 4;
    }

    int leaves() const { return leaves_; }

  private:
    std::int64_t
    entryKey(int sw, int dest_leaf) const
    {
        return static_cast<std::int64_t>(sw) * leaves_ + dest_leaf;
    }

    /**
     * Global pool id stored for (sw, dest).  Width 3 marks direct
     * mode (the 24-bit value is the pool id itself); widths 1/2/4 are
     * dictionary mode (the value indexes the switch's local list).
     */
    std::uint32_t
    entryGid(int sw, int dest) const
    {
        const std::uint8_t w = entry_width_[sw];
        const std::uint8_t *p = entry_bytes_.data() + entry_off_[sw] +
                                static_cast<std::size_t>(dest) * w;
        std::uint32_t v;
        switch (w) {
        case 1:
            v = *p;
            break;
        case 2: {
            std::uint16_t v16;
            std::memcpy(&v16, p, 2);
            v = v16;
            break;
        }
        case 3:
            return static_cast<std::uint32_t>(p[0]) |
                   (static_cast<std::uint32_t>(p[1]) << 8) |
                   (static_cast<std::uint32_t>(p[2]) << 16);
        default:
            std::memcpy(&v, p, 4);
            break;
        }
        return dict_ids_[static_cast<std::size_t>(dict_off_[sw]) + v];
    }

    int leaves_ = 0;
    int switches_ = 0;
    long long populated_ = 0;
    long long total_ports_ = 0;
    // Hash-consed pool: unique set g spans pool_ports_[pool_off_[g],
    // pool_off_[g+1]).
    std::vector<std::uint16_t> pool_ports_;
    std::vector<std::int64_t> pool_off_;
    // Per-switch dictionary: switch s references the global sets
    // dict_ids_[dict_off_[s], dict_off_[s+1]).
    std::vector<std::uint32_t> dict_ids_;
    std::vector<std::int64_t> dict_off_;
    // Entry matrix: switch s stores leaves_ values of entry_width_[s]
    // bytes each starting at entry_off_[s] - local dictionary indices
    // (width 1/2/4) or direct 24-bit pool ids (width 3).
    std::vector<std::uint8_t> entry_bytes_;
    std::vector<std::int64_t> entry_off_;
    std::vector<std::uint8_t> entry_width_;
    // Copy-on-write mutations, keyed by entryKey().
    std::unordered_map<std::int64_t, std::vector<std::uint16_t>>
        overrides_;
};

} // namespace rfc

#endif // RFC_ROUTING_TABLES_HPP
