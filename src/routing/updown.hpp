/**
 * @file
 * Up/down routing oracle for folded Clos networks (Section 4.1).
 *
 * Up/down routing sends a packet up some number of levels to a common
 * ancestor of source and destination leaf, then down; it is deadlock
 * free without virtual channels because the channel dependency graph is
 * acyclic.  In a fat-tree the ancestor structure is implicit in the
 * wiring; in a *random* folded Clos it must be discovered.  The oracle
 * stores, per switch s and ascent budget j, the set reach_j[s] of
 * leaves reachable by at most j up hops followed by down hops only.
 *
 * Layout: a pool of distinct rows and per-switch runs of row offsets.
 * A switch at level L (1-based) of an l-level network can climb at
 * most l - L hops (its ceiling c), so every budget above c repeats the
 * ceiling's set; it keeps only budgets 0..c.  Every row is ceil(N1 / 64)
 * words, and each distinct row is stored once in the pool: in a
 * fat-tree every switch of a subtree reaches the same leaves, so
 * CFT(36,4) has 12,349 distinct rows among its 110,808.  Each switch
 * owns one contiguous run of 32-bit word offsets into the pool:
 *     its own rows for budgets 0..c,
 *     then, for each budget j < c, each parent's budget-j row,
 *     then each child's budget-0 row,
 * so a next-hop decision reads one run and never the neighbour ids.
 * The neighbour entries are there for speed alone: without them each
 * port costs one more dependent load, and nextHops ran up to 16%
 * slower than the dense (switch, budget) array it replaced (DESIGN.md
 * section 4, item 2).
 * The build computes each row in a scratch row at the pool's end and
 * keeps it only when no equal row is there yet (hash, then compare
 * words); the dense (switch, budget) array never exists.
 * The tables hold
 *     8 x ceil(N1 / 64) x D + 4 x (run entries + switches)
 * bytes (memoryBytes), D the number of distinct rows: at most the
 * dense count sum_L switchesAtLevel(L) x (l - L + 1), and exactly
 * N1 + sum_{k=2}^{l-1} N1 / (R/2)^(k-1) + 1 for CFT(R, l).
 * reach(s, j) for j above s's ceiling returns the ceiling row.
 *
 * This yields:
 *
 *  - exact minimal up/down ECMP next-hop choices in O(degree) per hop,
 *    as one port mask of maskWords() words at any radix (nextHops: the
 *    form the packet engine, the table meter and the flow-path
 *    enumerator all read),
 *  - the network-wide routability predicate of Theorem 4.2
 *    (reach_{l-1}[leaf] = all leaves, for every leaf), and
 *  - minimal up/down path lengths for latency accounting.
 *
 * The list methods (downChoices, upChoices, feasibleUpChoices) give
 * the same sets as port-index lists, each from its own per-entry
 * scan; no routing path uses them.  They stay as the independent
 * reference the checkers (src/check), the tests and the benchmark's
 * self-check compare nextHops and the table rows against.
 *
 * Dynamic faults: bind a LinkFaultState overlay at build time and the
 * oracle sees only alive links - both in the reachability tables and
 * in every next-hop choice.  After the overlay flips links, build()
 * again against it: a live run flips every link of a topology barrier
 * first and then rebuilds once (sim/simulator.cpp).
 */
#ifndef RFC_ROUTING_UPDOWN_HPP
#define RFC_ROUTING_UPDOWN_HPP

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "clos/faults.hpp"
#include "clos/folded_clos.hpp"
#include "util/bitset.hpp"

namespace rfc {

/** Reachability oracle and ECMP chooser for up/down routing. */
class UpDownOracle
{
  public:
    UpDownOracle() = default;

    /** Build the oracle for @p fc (O(l * switches * leaves / 64) time). */
    explicit UpDownOracle(const FoldedClos &fc) { build(fc); }

    /** (Re)build for a (possibly modified) topology, all links alive. */
    void build(const FoldedClos &fc) { build(fc, nullptr); }

    /**
     * (Re)build with a link-state overlay: dead links do not
     * contribute reachability and are never offered as next hops.
     * @p faults (may be null = all alive) must outlive the oracle and
     * stay bound to @p fc; copies of the oracle share the overlay.
     */
    void build(const FoldedClos &fc, const LinkFaultState *faults);

    /** Exact table equality (tests compare against a fresh build). */
    bool sameTables(const UpDownOracle &o) const;

    /** The bound link-state overlay (null = all links alive). */
    const LinkFaultState *faultOverlay() const { return faults_; }

    /** Leaves reachable from @p s going only down (a copy). */
    DynBitset below(int s) const { return reach(s, 0); }

    /**
     * Leaves reachable from @p s with at most @p ups up hops (a copy);
     * a budget above s's ceiling gives the ceiling's set.
     */
    DynBitset
    reach(int s, int ups) const
    {
        return DynBitset(static_cast<std::size_t>(num_leaves_),
                         reachWords(s, ups));
    }

    /**
     * The ceil(numLeaves / 64) words of reach(s, ups) in place: bit
     * d % 64 of word d / 64 is leaf d.  The same ceiling rule applies.
     */
    const std::uint64_t *
    reachWords(int s, int ups) const
    {
        const int ceiling = levels_ - 1 - levelIndex(s);
        return pool_.data() + run(s)[std::min(ups, ceiling)];
    }

    /**
     * Minimum number of up hops needed from switch @p s to reach leaf
     * @p dest_leaf (0 if dest is below s); -1 if unreachable by any
     * up/down continuation.
     */
    int minUps(int s, int dest_leaf) const;

    /** Minimal up/down distance between two leaves (0 if equal). */
    int leafDistance(int a, int b) const;

    /**
     * Mean minimal up/down distance over all ordered leaf pairs with a
     * route (the oracle-level counterpart of the simulator's avg-hops
     * statistic at zero load).
     */
    double averageLeafDistance() const;

    /** True iff every leaf pair has a common ancestor (Theorem 4.2). */
    bool routable() const;

    /** Fraction of unordered leaf pairs with a common ancestor. */
    double routablePairFraction() const;

    /**
     * Minimal next-hop down choices: indices into fc.down(s) of children
     * c with dest below c.  Only valid when minUps(s, dest) == 0 and s
     * is not the destination leaf.
     */
    void downChoices(const FoldedClos &fc, int s, int dest_leaf,
                     std::vector<int> &out) const;

    /**
     * Minimal next-hop up choices: indices into fc.up(s) of parents p
     * with minUps(p, dest) == minUps(s, dest) - 1.  Only valid when
     * minUps(s, dest) >= 1.
     */
    void upChoices(const FoldedClos &fc, int s, int dest_leaf,
                   std::vector<int> &out) const;

    /**
     * All feasible up choices ("request mode up/down random"): indices
     * into fc.up(s) of parents from which the destination remains
     * reachable by some up*down* continuation - not necessarily the
     * minimal one.  Spreads adversarial point-to-point load over every
     * usable parent at the cost of occasionally longer paths; still
     * deadlock free and bounded by 2(l-1) hops.
     */
    void feasibleUpChoices(const FoldedClos &fc, int s, int dest_leaf,
                           std::vector<int> &out) const;

    /**
     * The next hops of one (switch, leaf) pair as a port mask: returns
     * minUps(s, dest_leaf) (-1 = unreachable) and writes the choice set
     * of downChoices (need 0), upChoices or, with @p feasible,
     * feasibleUpChoices to @p mask[0, maskWords()): bit i % 64 of word
     * i / 64 is port index i.  An unreachable leaf leaves it empty.
     * Finds the switch's level once, then, through the switch's run of
     * row offsets, tests one word of each of its rows up to minUps and
     * one word of each alive neighbour's row at the budget the port
     * needs.
     */
    int nextHops(const FoldedClos &fc, int s, int dest_leaf, bool feasible,
                 std::uint64_t *mask) const;

    /** Words of a nextHops mask: ceil(widest up or down list / 64). */
    int maskWords() const { return mask_words_; }

    /** Number of choices in @p mask of @p words words. */
    static int
    maskCount(const std::uint64_t *mask, int words)
    {
        int count = 0;
        for (int w = 0; w < words; ++w)
            count += __builtin_popcountll(mask[w]);
        return count;
    }

    /**
     * Port index of choice @p k (0-based, ascending) of @p mask: the
     * k-th entry the list methods would return.  @p k must be below the
     * mask's maskCount.
     */
    static int
    maskSelect(const std::uint64_t *mask, std::uint64_t k)
    {
        int w = 0;
        for (;; ++w) {
            const auto c =
                static_cast<std::uint64_t>(__builtin_popcountll(mask[w]));
            if (k < c)
                break;
            k -= c;
        }
        std::uint64_t m = mask[w];
        while (k--)
            m &= m - 1;
        return 64 * w + __builtin_ctzll(m);
    }

    int numLeaves() const { return num_leaves_; }

    /**
     * Bytes of the tables: 8 x ceil(N1 / 64) per distinct row, plus
     * 4 per run entry and 4 per switch for the run bases (0 before a
     * build).
     */
    std::int64_t
    memoryBytes() const
    {
        return static_cast<std::int64_t>(pool_.size()) * 8 +
               static_cast<std::int64_t>(offs_.size() + base_.size()) * 4;
    }

  private:
    /**
     * The distinct rows, back to back.  It grows by realloc, so a pool
     * past the allocator's mmap threshold is remapped, not copied:
     * growing by copies would hold the old and the new pool at once.
     */
    class WordPool
    {
      public:
        WordPool() = default;
        WordPool(const WordPool &o);
        WordPool(WordPool &&o) noexcept { swap(o); }
        WordPool &
        operator=(WordPool o) noexcept
        {
            swap(o);
            return *this;
        }
        ~WordPool() { std::free(data_); }

        const std::uint64_t *data() const { return data_; }
        std::size_t size() const { return size_; }
        void clear() { size_ = 0; }
        /** Grow by @p words uninitialised words; returns the first. */
        std::uint64_t *extend(std::size_t words);
        /** Drop every word from @p size on. */
        void truncate(std::size_t size) { size_ = size; }
        /** Give back the capacity beyond size(). */
        void shrinkToFit();
        bool operator==(const WordPool &o) const;

      private:
        void
        swap(WordPool &o) noexcept
        {
            std::swap(data_, o.data_);
            std::swap(size_, o.size_);
            std::swap(capacity_, o.capacity_);
        }
        /** Resize the block to @p capacity words (> 0), keeping the
         *  words below both sizes. */
        void reallocate(std::size_t capacity);

        std::uint64_t *data_ = nullptr;
        std::size_t size_ = 0;
        std::size_t capacity_ = 0;
    };

    /** 0-based level of switch @p s (levels are few: a short scan). */
    int
    levelIndex(int s) const
    {
        int lv = levels_ - 1;
        while (s < first_[static_cast<std::size_t>(lv)])
            --lv;
        return lv;
    }

    /**
     * Switch @p s's run of pool offsets: budgets 0..c of its own rows
     * (c its ceiling), then c blocks of one entry per parent (block j
     * the parents' budget-j rows), then one per child (budget 0).
     */
    const std::uint32_t *
    run(int s) const
    {
        return offs_.data() + base_[static_cast<std::size_t>(s)];
    }

    static bool
    hasLeaf(const std::uint64_t *row, int leaf)
    {
        return (row[static_cast<std::size_t>(leaf) >> 6] >> (leaf & 63)) & 1;
    }

    bool upAlive(int s, std::size_t i) const
    {
        return !faults_ || !faults_->upDead(s, i);
    }

    bool downAlive(int s, std::size_t i) const
    {
        return !faults_ || !faults_->downDead(s, i);
    }

    int levels_ = 0;
    int num_leaves_ = 0;
    int mask_words_ = 1;
    std::size_t row_words_ = 0;        // ceil(num_leaves_ / 64)
    std::vector<int> first_;           // first switch of each 0-based level
    WordPool pool_;                    // the distinct rows of reach_j[s]
    std::vector<std::uint32_t> base_;  // per switch: its run's start in offs_
    std::vector<std::uint32_t> offs_;  // the runs: word offsets into pool_
    const LinkFaultState *faults_ = nullptr;
};

// Inline: the packet engine calls it on every up/down routing visit.
inline int
UpDownOracle::nextHops(const FoldedClos &fc, int s, int dest_leaf,
                       bool feasible, std::uint64_t *mask) const
{
    std::fill_n(mask, mask_words_, std::uint64_t{0});
    const int ceiling = levels_ - 1 - levelIndex(s);
    const std::uint32_t *own = run(s);
    const std::uint64_t *pool = pool_.data();
    int need = 0;
    while (!hasLeaf(pool + own[need], dest_leaf))
        if (++need > ceiling)
            return -1;

    const auto up = fc.up(s);
    const std::uint32_t *next = own + ceiling + 1;
    if (need == 0) {
        // Children sit one level down; their budget-0 rows follow the
        // parents' blocks.
        const auto down = fc.down(s);
        next += static_cast<std::size_t>(ceiling) * up.size();
        for (std::size_t i = 0; i < down.size(); ++i)
            if (downAlive(s, i) && hasLeaf(pool + next[i], dest_leaf))
                mask[i / 64] |= std::uint64_t{1} << (i % 64);
        return need;
    }
    // Minimal parents reach dest in need - 1 more ups; feasible ones
    // in whatever budget remains above them, their own ceiling (see
    // feasibleUpChoices).
    next += static_cast<std::size_t>(feasible ? ceiling - 1 : need - 1) *
            up.size();
    for (std::size_t i = 0; i < up.size(); ++i)
        if (upAlive(s, i) && hasLeaf(pool + next[i], dest_leaf))
            mask[i / 64] |= std::uint64_t{1} << (i % 64);
    return need;
}

} // namespace rfc

#endif // RFC_ROUTING_UPDOWN_HPP
