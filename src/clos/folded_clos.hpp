/**
 * @file
 * Level-structured folded Clos topology representation (Definition 3.1).
 *
 * Every indirect topology in this library - commodity fat-trees, k-ary
 * l-trees, orthogonal fat-trees and random folded Clos networks - is
 * emitted as this one type, so routing, simulation, cost analysis and
 * fault injection are topology-agnostic.
 *
 * Switches are numbered globally, level-major: level 1 (leaves) first.
 * A switch's adjacency is split into an up list (level + 1 neighbors)
 * and a down list (level - 1 neighbors).  Terminals attach only to
 * leaves, terminalsPerLeaf() per leaf, numbered leaf-major.
 *
 * Adjacency is stored CSR-style in two flat arrays (one for up lists,
 * one for down lists): per-switch segments sized from the radix
 * regularity of Definition 3.1 (R/2 up and R/2 down below the top, R
 * down at the top), with int64 segment offsets and int32 fill counts
 * and targets.  At a million terminals this replaces tens of millions
 * of per-switch heap vectors with six flat allocations.  up(s)/down(s)
 * return non-owning views; like vector iterators they are invalidated
 * by addLink/removeLink.  Irregular wirings (manual tests, expansion
 * intermediates) that outgrow a segment trigger a rare whole-array
 * regrow, so the public contract is unchanged from the vector days.
 */
#ifndef RFC_CLOS_FOLDED_CLOS_HPP
#define RFC_CLOS_FOLDED_CLOS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/span.hpp"

namespace rfc {

/** An inter-switch link, identified by its two endpoint switches. */
struct ClosLink
{
    std::int32_t lower;  //!< switch at level i
    std::int32_t upper;  //!< switch at level i+1
};

/** A folded Clos network (Definition 3.1 of the paper). */
class FoldedClos
{
  public:
    FoldedClos() = default;

    /**
     * Create an unwired network.
     * @param level_count Switches per level, leaves first (size l >= 1).
     * @param radix Nominal switch radix R.
     * @param terminals_per_leaf Compute nodes attached to each leaf.
     * @param name Human-readable topology name (for reports).
     * @throws std::invalid_argument on no levels, an empty level, or
     *         level counts that sum past INT_MAX (switch ids are int).
     */
    FoldedClos(std::vector<int> level_count, int radix,
               int terminals_per_leaf, std::string name);

    /** Number of levels l. */
    int levels() const { return static_cast<int>(level_count_.size()); }

    /** Nominal switch radix R. */
    int radix() const { return radix_; }

    const std::string &name() const { return name_; }

    int numSwitches() const { return num_switches_; }

    /** Switches at 1-based level @p lv. */
    int switchesAtLevel(int lv) const { return level_count_[lv - 1]; }

    /** Global id of the first switch of 1-based level @p lv. */
    int levelOffset(int lv) const { return level_offset_[lv - 1]; }

    /** 1-based level of switch @p s. */
    int levelOf(int s) const;

    int terminalsPerLeaf() const { return terminals_per_leaf_; }

    int numLeaves() const { return level_count_[0]; }

    long long
    numTerminals() const
    {
        return static_cast<long long>(numLeaves()) * terminals_per_leaf_;
    }

    /** Leaf switch hosting terminal @p t. */
    int
    leafOfTerminal(long long t) const
    {
        return static_cast<int>(t / terminals_per_leaf_);
    }

    /** Connect switch @p lower (level i) to @p upper (level i+1). */
    void addLink(int lower, int upper);

    /**
     * Up neighbors (parents) of switch @p s.  The view is invalidated
     * by addLink/removeLink; copy before mutating while iterating.
     */
    Span<std::int32_t>
    up(int s) const
    {
        return {up_tgt_.data() + up_off_[s],
                static_cast<std::size_t>(up_len_[s])};
    }

    /** Down neighbors (children) of switch @p s (empty for leaves).
     *  Same invalidation rule as up(). */
    Span<std::int32_t>
    down(int s) const
    {
        return {down_tgt_.data() + down_off_[s],
                static_cast<std::size_t>(down_len_[s])};
    }

    /**
     * Remove one instance of the link lower-upper.
     * @return true if a link was found and removed.
     */
    bool removeLink(int lower, int upper);

    /**
     * Multiplicity of the link lower-upper (0 when absent).  The
     * generators emit simple wirings, so the invariant checkers treat
     * any multiplicity above 1 as a violation.
     */
    int countLink(int lower, int upper) const;

    /** All inter-switch links. */
    std::vector<ClosLink> links() const;

    /** Number of inter-switch links (wires). */
    long long numWires() const;

    /** Network ports in use = 2 * wires (the Figure 7 cost metric). */
    long long numNetworkPorts() const { return 2 * numWires(); }

    /**
     * Radix-regularity check (Definition 3.1): every switch below the
     * top has R/2 up and R/2 down links (down = terminals for leaves),
     * and top switches have R down links.
     */
    bool isRadixRegular() const;

    /**
     * Structural validation: every up link points one level higher and
     * is mirrored in the partner's down list.
     */
    bool validate() const;

    /** Lower to the plain switch graph (for diameter/bisection/faults). */
    Graph toGraph() const;

    /** Measured bytes held by the CSR adjacency and level arrays. */
    std::int64_t memoryBytes() const;

  private:
    /** Widen switch @p s's segment in one CSR array (rare path). */
    static void growSegment(std::vector<std::int64_t> &off,
                            std::vector<std::int32_t> &tgt, int s);

    std::vector<int> level_count_;
    std::vector<int> level_offset_;
    int num_switches_ = 0;
    int radix_ = 0;
    int terminals_per_leaf_ = 0;
    std::string name_;
    // CSR adjacency: segment s of *_tgt_ spans [*_off_[s], *_off_[s+1])
    // with the first *_len_[s] slots in use.
    std::vector<std::int64_t> up_off_, down_off_;
    std::vector<std::int32_t> up_len_, down_len_;
    std::vector<std::int32_t> up_tgt_, down_tgt_;
};

} // namespace rfc

#endif // RFC_CLOS_FOLDED_CLOS_HPP
