/**
 * @file
 * Routing policy of the folded Clos simulator: up/down ECMP through a
 * reachability oracle, with optional Valiant randomization or the
 * UGAL-style choice between the two (see RouteMode).  Plugged into
 * VctEngine as its compile-time Policy.
 *
 * Draw discipline (part of the recorded random stream: changing it
 * moves the golden baselines): injection first samples the Valiant or
 * UGAL intermediate (if any), then picks the highest-credit VC with a
 * random tie-break; every arbitration visit re-draws the up/down ECMP
 * choice (a head whose only port is busy is not visited until it
 * frees); the output VC is drawn uniformly among the credited channels
 * of the packet's phase range.
 *
 * UGAL (RouteMode::kUgal) samples its candidate intermediate exactly
 * like Valiant, then keeps it only when the minimal route is backed
 * up.  The local congestion estimate of a route is the smallest
 * backlog (CongestionView::backlog) over the feasible first-hop out
 * ports at the source leaf, where backpressure from a congested funnel
 * lands.  With h_min / h_val the up+down hop counts of the two routes,
 *
 *   route minimally  iff  q_min * h_min <= q_val * h_val + ugal_threshold
 *
 * On friendly traffic q_min stays low and packets route minimally;
 * under adversarial funnels they spill onto Valiant detours.  Every
 * packet, minimal or not, lives in Valiant's phase-partitioned VCs
 * (minimal packets start in phase 1), which keeps the mode deadlock
 * free.  The decision runs at injection on the shard owning the source
 * terminal and reads only that leaf's out-port credits - the
 * shard-local slice the CongestionView contract allows.
 */
#ifndef RFC_SIM_CORE_POLICY_UPDOWN_HPP
#define RFC_SIM_CORE_POLICY_UPDOWN_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "clos/folded_clos.hpp"
#include "routing/updown.hpp"
#include "sim/core/config.hpp"
#include "sim/core/congestion.hpp"
#include "sim/core/layout.hpp"
#include "util/rng.hpp"

namespace rfc {

class UpDownPolicy
{
  public:
    struct Pkt
    {
        // gen, noroute, wl_src and wl_tag are engine-owned: see the
        // "Engine-owned Pkt fields" convention atop sim/core/engine.hpp.
        std::int32_t gen;
        std::uint8_t noroute;
        std::int32_t wl_src;
        std::uint32_t wl_tag;
        // Policy routing state.
        std::int32_t dest_leaf;
        std::int16_t dest_local;
        std::int16_t hops;
        std::int32_t inter_leaf;  //!< Valiant intermediate (-1 = none)
        std::int8_t phase;        //!< 0 = toward intermediate, 1 = final
    };

    UpDownPolicy(const FoldedClos &fc, const UpDownOracle &oracle,
                 const FabricLayout &lay, const SimConfig &cfg)
        : fc_(&fc), oracle_(&oracle), lay_(&lay),
          mode_(cfg.route_mode), vcs_(cfg.vcs),
          tpl_(fc.terminalsPerLeaf()), threshold_(cfg.ugal_threshold)
    {}

    bool
    routable(long long term, long long dest)
    {
        return needFor(static_cast<int>(term / tpl_),
                       static_cast<int>(dest / tpl_)) >= 0;
    }

    int
    injectVc(const CongestionView &cv, long long term,
             std::int32_t dest, Rng &rng)
    {
        // Valiant/UGAL set-up: fix the packet's intermediate leaf (if
        // any) before choosing the injection VC, whose range depends on
        // the packet's phase.
        pending_inter_ = -1;
        pending_phase_ = 1;
        if (phased()) {
            const int src_leaf = static_cast<int>(term / tpl_);
            const int dst_leaf = dest / tpl_;
            const std::int32_t cand =
                sampleIntermediate(src_leaf, dst_leaf, rng);
            if (cand >= 0 && (mode_ == RouteMode::kValiant ||
                              ugalDetours(cv, src_leaf, dst_leaf, cand))) {
                pending_inter_ = cand;
                pending_phase_ = 0;
            }
        }
        int vc_lo, vc_hi;
        phaseVcs(pending_phase_, vc_lo, vc_hi);

        // "shortest" injection: the VC with most credits; random among
        // ties; skip if all are full.
        const std::int8_t *credits = cv.injCredits(term);
        int best_vc = -1, best_credit = 0, ties = 0;
        for (int v = vc_lo; v < vc_hi; ++v) {
            int c = credits[v];
            if (c > best_credit) {
                best_credit = c;
                best_vc = v;
                ties = 1;
            } else if (c == best_credit && c > 0) {
                ++ties;
                if (rng.uniform(ties) == 0)
                    best_vc = v;
            }
        }
        return best_vc;
    }

    void
    initPacket(Pkt &p, long long term, std::int32_t dest, Rng &rng)
    {
        (void)term;
        (void)rng;
        p.dest_leaf = dest / tpl_;
        p.dest_local = static_cast<std::int16_t>(dest % tpl_);
        p.hops = 0;
        p.inter_leaf = pending_inter_;
        p.phase = pending_phase_;
    }

    int
    routeOut(const CongestionView &cv, int s, Pkt &p, Rng &rng,
             int &fixed_vc, bool &sole)
    {
        (void)cv;  // oblivious: the choice never reads congestion
        fixed_vc = -1;
        sole = true;
        if (p.phase == 0 && s == p.inter_leaf)
            p.phase = 1;  // Valiant intermediate reached: head for dest
        const std::int32_t target =
            p.phase == 0 ? p.inter_leaf : p.dest_leaf;
        if (s == target)
            return lay_->n_up[s] + p.dest_local;  // ejection (phase 1)

        // The choice set depends only on (s, target) and the routing
        // mode, while blocked packets re-draw it every cycle - so it is
        // memoized as a port bitmask.  The draw discipline is untouched:
        // one uniform(count) draw mapping to the k-th choice in the same
        // ascending-port order as the oracle scan.
        const Choices ch = choicesFor(s, target);
        if (ch.need < 0)
            return -1;
        if (ch.wide)
            return routeOutWide(s, target, ch.need, rng, sole);
        if (ch.mask == 0)
            return -1;
        const int count = __builtin_popcountll(ch.mask);
        sole = count == 1;
        int pick = selectBit(ch.mask, rng.uniform(count));
        return ch.need == 0 ? lay_->n_up[s] + pick : pick;
    }

    void
    vcRange(const Pkt &p, int &lo, int &hi) const
    {
        phaseVcs(p.phase, lo, hi);
    }

    int
    chooseOutVc(const CongestionView &cv, std::int64_t o_gid,
                const Pkt &p, Rng &rng)
    {
        // Random VC among those with credit, within the packet's
        // allowed range.
        int vc_lo, vc_hi;
        vcRange(p, vc_lo, vc_hi);
        int out_vc = -1, seen = 0;
        for (int v = vc_lo; v < vc_hi; ++v) {
            if (cv.credit(o_gid, v) > 0) {
                ++seen;
                if (rng.uniform(seen) == 0)
                    out_vc = v;
            }
        }
        return out_vc;
    }

    void onForward(Pkt &p) { ++p.hops; }

    double hopsOf(const Pkt &p) const { return p.hops; }

    /**
     * The oracle's tables changed under us (runtime link fail/repair):
     * every memoized choice entry may be stale, so drop the cache and
     * refill lazily from the repaired oracle.
     */
    void onTopologyChange() { memo_.clear(); }

  private:
    /** Valiant and UGAL route in two phases over split VC halves. */
    bool
    phased() const
    {
        return mode_ == RouteMode::kValiant || mode_ == RouteMode::kUgal;
    }

    /**
     * VC range of a packet in @p phase.  Phase-partitioned channels
     * keep the two up/down phases' channel dependencies acyclic; the
     * single-phase modes keep every packet in phase 1, i.e. all VCs.
     */
    void
    phaseVcs(int phase, int &lo, int &hi) const
    {
        const int half = phased() ? vcs_ / 2 : 0;
        lo = phase == 0 ? 0 : half;
        hi = phase == 0 ? half : vcs_;
    }

    /**
     * A uniformly random leaf, other than @p src and @p dst, that both
     * can reach (16 tries), or -1 when there is none or the route
     * stays inside one leaf.
     */
    std::int32_t
    sampleIntermediate(int src, int dst, Rng &rng)
    {
        if (src == dst || fc_->numLeaves() <= 2)
            return -1;
        for (int tries = 0; tries < 16; ++tries) {
            auto cand = static_cast<std::int32_t>(rng.uniform(
                static_cast<std::uint64_t>(fc_->numLeaves())));
            if (cand == src || cand == dst)
                continue;
            if (needFor(src, cand) >= 0 && needFor(cand, dst) >= 0)
                return cand;
        }
        return -1;
    }

    /** The UGAL test: detour through @p inter rather than go minimal. */
    bool
    ugalDetours(const CongestionView &cv, int src, int dst, int inter)
    {
        // Up+down hop estimates: a route of u up hops descends u too.
        const double h_min = 2.0 * needFor(src, dst);
        const double h_val =
            2.0 * (needFor(src, inter) + needFor(inter, dst));
        const int q_min = bestBacklog(cv, src, dst);
        const int q_val = bestBacklog(cv, src, inter);
        return q_min >= 0 && q_val >= 0 &&
               q_min * h_min > q_val * h_val + threshold_;
    }

    /**
     * First-hop congestion probe: the smallest backlog() over the
     * feasible next-hop out ports from switch @p s toward leaf
     * @p target (the queue a packet would join under the best draw),
     * or -1 when the target is unreachable.  Shard-local: only reads
     * out-port credits of @p s itself.
     */
    int
    bestBacklog(const CongestionView &cv, int s, int target)
    {
        if (s == target)
            return 0;
        const Choices ch = choicesFor(s, target);
        if (ch.need < 0 || (!ch.wide && ch.mask == 0))
            return -1;
        const std::int64_t base = cv.portBase(s);
        const std::int64_t off = ch.need == 0 ? lay_->n_up[s] : 0;
        int best = -1;
        if (ch.wide) {
            fillScratch(s, target, ch.need);
            for (int p : choice_scratch_) {
                int b = cv.backlog(base + off + p);
                if (best < 0 || b < best)
                    best = b;
            }
            return best;
        }
        for (std::uint64_t m = ch.mask; m != 0; m &= m - 1) {
            int b = cv.backlog(base + off + __builtin_ctzll(m));
            if (best < 0 || b < best)
                best = b;
        }
        return best;
    }

    /**
     * Memoized routing decision for one (switch, target-leaf) pair,
     * packed into one word: bits [0, kMaskBits) hold the feasible
     * choice set as a bitmask over local port indices (down ports when
     * need == 0, up ports otherwise; choice k is the k-th set bit,
     * matching the ascending order of the oracle's scan), bit kMaskBits
     * marks a set with an index at or above kMaskBits (served by the
     * oracle scan instead, which picks the same port), and the top
     * byte holds need + 2 - so 0 means unfilled.
     */
    using ChoiceEntry = std::uint64_t;

    static constexpr int kMaskBits = 55;
    static constexpr ChoiceEntry kMaskAll =
        (ChoiceEntry{1} << kMaskBits) - 1;
    static constexpr ChoiceEntry kWide = ChoiceEntry{1} << kMaskBits;
    static constexpr int kNeedShift = 56;

    /** A decoded ChoiceEntry. */
    struct Choices
    {
        int need;            //!< minimal up-hops, -1 = unreachable
        bool wide;           //!< choice set lives only in the oracle
        std::uint64_t mask;  //!< choice bitmask (0 when wide)
    };

    static int
    selectBit(std::uint64_t mask, std::uint64_t k)
    {
        while (k--)
            mask &= mask - 1;
        return __builtin_ctzll(mask);
    }

    Choices
    choicesFor(int s, int target)
    {
        if (memo_.empty())
            memo_.resize(fc_->numSwitches());
        auto &row = memo_[s];
        if (row.empty())
            row.resize(static_cast<std::size_t>(fc_->numLeaves()));
        ChoiceEntry &e = row[target];
        if (e == 0)
            e = fillEntry(s, target);
        return {static_cast<int>(e >> kNeedShift) - 2, (e & kWide) != 0,
                e & kMaskAll};
    }

    int
    needFor(int s, int target)
    {
        if (s == target)
            return 0;
        return choicesFor(s, target).need;
    }

    ChoiceEntry
    fillEntry(int s, int target)
    {
        const int need = std::max(oracle_->minUps(s, target), -1);
        const ChoiceEntry head = static_cast<ChoiceEntry>(need + 2)
                                 << kNeedShift;
        if (need < 0)
            return head;
        fillScratch(s, target, need);
        if (!choice_scratch_.empty() &&
            choice_scratch_.back() >= kMaskBits)
            return head | kWide;
        ChoiceEntry mask = 0;
        for (int i : choice_scratch_)
            mask |= ChoiceEntry{1} << i;
        return head | mask;
    }

    //! Fill choice_scratch_ with the oracle's choice set, in port order.
    void
    fillScratch(int s, int target, int need)
    {
        if (need == 0)
            oracle_->downChoices(*fc_, s, target, choice_scratch_);
        else if (mode_ == RouteMode::kUpDownRandom)
            oracle_->feasibleUpChoices(*fc_, s, target, choice_scratch_);
        else
            oracle_->upChoices(*fc_, s, target, choice_scratch_);
    }

    //! Slow path for radices beyond the packed mask (rare).
    int
    routeOutWide(int s, int target, int need, Rng &rng, bool &sole)
    {
        fillScratch(s, target, need);
        sole = choice_scratch_.size() == 1;
        int pick = choice_scratch_[rng.uniform(choice_scratch_.size())];
        return need == 0 ? lay_->n_up[s] + pick : pick;
    }

    const FoldedClos *fc_;
    const UpDownOracle *oracle_;
    const FabricLayout *lay_;
    RouteMode mode_;
    int vcs_;
    int tpl_;
    double threshold_;  //!< SimConfig::ugal_threshold

    // Injection-time Valiant/UGAL state, valid between injectVc and the
    // following initPacket (per-shard policy copies keep this private
    // to one thread).
    std::int32_t pending_inter_ = -1;
    std::int8_t pending_phase_ = 1;
    std::vector<int> choice_scratch_;

    // Lazily filled per-instance choice cache; rows allocate on first
    // touch, so each shard's policy copy only pays for the switches it
    // owns.
    std::vector<std::vector<ChoiceEntry>> memo_;
};

} // namespace rfc

#endif // RFC_SIM_CORE_POLICY_UPDOWN_HPP
