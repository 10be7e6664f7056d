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
 * No state is kept per (switch, leaf): a packet's next-hop set comes
 * from UpDownOracle::nextHops as a port mask of maskWords() words, at
 * any radix, so a Simulator adds no routing memory beyond the oracle's
 * and one mask of scratch.  The one cache is per packet: the first
 * visit at a switch stores the set's port mask in the Pkt when every
 * choice is below port 32, and a head blocked there re-draws from that
 * mask instead of re-walking the reach words.  The draw discipline is
 * unchanged (one uniform(count) draw per visit over the same
 * ascending-port set), so caching moves no result.  inject and
 * onForward empty the cache; the engine empties every packet's cache
 * through forgetRoute after a cycle hook, which may rebuild the oracle
 * or the topology.
 *
 * UGAL (RouteMode::kUgal) samples its candidate intermediate exactly
 * like Valiant, then keeps it only when the minimal route is backed
 * up.  The local congestion estimate of a route is the smallest
 * backlog (CongestionView::backlog) over the feasible first-hop out
 * ports at the source leaf, where backpressure from a congested funnel
 * lands.  With h_min / h_val the up+down hop counts of the two routes,
 *
 *   route minimally  iff  q_min * h_min <= q_val * h_val + kUgalThreshold
 *
 * On friendly traffic q_min stays low and packets route minimally;
 * under adversarial funnels they spill onto Valiant detours.  Every
 * packet, minimal or not, lives in Valiant's phase-partitioned VCs
 * (minimal packets start in phase 1), which keeps the mode deadlock
 * free.  The decision runs at injection and reads only the source
 * leaf's out-port credits - the local slice the CongestionView
 * contract allows.
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
    /**
     * UGAL bias in queue-slot x hop units: larger values favor
     * minimal routing (0 = pure product comparison).
     */
    static constexpr double kUgalThreshold = 1.0;

    struct Pkt
    {
        // gen, next, ready and noroute are engine-owned: see the
        // "Engine-owned Pkt fields" convention atop sim/core/engine.hpp.
        // Fields run widest first, so the three one-byte fields share
        // the last word: 31 bytes of fields in 32.
        std::int32_t gen;
        std::int32_t next;
        std::int32_t ready;
        // Policy routing state.
        std::int32_t dest_leaf;
        std::int32_t inter_leaf;  //!< Valiant intermediate (-1 = none)
        //! Next-hop port mask at the switch where the packet waits
        //! (0 = not cached; a routable set is never empty).
        std::uint32_t route_mask;
        std::int16_t dest_local;
        std::int16_t hops;
        std::uint8_t noroute;
        std::int8_t phase;        //!< 0 = toward intermediate, 1 = final
        std::uint8_t route_down;  //!< route_mask holds down ports
    };
    static_assert(sizeof(Pkt) == 32, "UpDownPolicy::Pkt is not 32 B");

    UpDownPolicy(const FoldedClos &fc, const UpDownOracle &oracle,
                 const FabricLayout &lay, const SimConfig &cfg)
        : fc_(&fc), oracle_(&oracle), lay_(&lay),
          mode_(cfg.route_mode), vcs_(cfg.vcs),
          tpl_(fc.terminalsPerLeaf())
    {}

    bool
    routable(long long term, long long dest)
    {
        return needFor(static_cast<int>(term / tpl_),
                       static_cast<int>(dest / tpl_)) >= 0;
    }

    int
    inject(const CongestionView &cv, long long term, std::int32_t dest,
           Rng &rng, Pkt &p)
    {
        // Valiant/UGAL set-up: fix the packet's intermediate leaf (if
        // any) before choosing the injection VC, whose range depends on
        // the packet's phase.
        std::int32_t inter = -1;
        std::int8_t phase = 1;
        if (phased()) {
            const int src_leaf = static_cast<int>(term / tpl_);
            const int dst_leaf = dest / tpl_;
            const std::int32_t cand =
                sampleIntermediate(src_leaf, dst_leaf, rng);
            if (cand >= 0 && (mode_ == RouteMode::kValiant ||
                              ugalDetours(cv, src_leaf, dst_leaf, cand))) {
                inter = cand;
                phase = 0;
            }
        }
        int vc_lo, vc_hi;
        phaseVcs(phase, vc_lo, vc_hi);

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
        if (best_vc < 0)
            return -1;
        p.dest_leaf = dest / tpl_;
        p.dest_local = static_cast<std::int16_t>(dest % tpl_);
        p.hops = 0;
        p.inter_leaf = inter;
        p.phase = phase;
        forgetRoute(p);
        return best_vc;
    }

    int
    routeOut(const CongestionView &cv, int s, Pkt &p, Rng &rng,
             bool &sole)
    {
        (void)cv;  // oblivious: the choice never reads congestion
        // A cached set implies the phase and target checks below already
        // ran at this switch.
        if (p.route_mask != 0) {
            const std::uint64_t cached = p.route_mask;
            return drawPort(s, &cached, 1, p.route_down != 0, rng, sole);
        }
        sole = true;
        if (p.phase == 0 && s == p.inter_leaf)
            p.phase = 1;  // Valiant intermediate reached: head for dest
        const std::int32_t target =
            p.phase == 0 ? p.inter_leaf : p.dest_leaf;
        if (s == target)
            return lay_->n_up[s] + p.dest_local;  // ejection (phase 1)

        // The choice set comes from the oracle's reach words as a port
        // bitmask and is cached in the packet when every choice is below
        // port 32; nothing is cached per (switch, leaf).
        const int need = nextHops(s, target, mask_);
        if (need < 0)
            return -1;
        if (fitsCache(mask_)) {
            p.route_mask = static_cast<std::uint32_t>(mask_[0]);
            p.route_down = need == 0;
        }
        return drawPort(s, mask_.data(), oracle_->maskWords(), need == 0,
                        rng, sole);
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

    void
    onForward(Pkt &p)
    {
        ++p.hops;
        forgetRoute(p);
    }

    /** Empty @p p's cached next-hop set (see the file comment). */
    void
    forgetRoute(Pkt &p) const
    {
        p.route_mask = 0;
        p.route_down = 0;
    }

    /**
     * Whether @p p's cached next-hop set at switch @p s (if any) is the
     * one routeOut would read from the oracle now: the invariant guard
     * recomputes every cache hit through this.
     */
    bool
    routeCacheFresh(int s, const Pkt &p) const
    {
        if (p.route_mask == 0)
            return true;
        const std::int32_t target =
            p.phase == 0 && s != p.inter_leaf ? p.inter_leaf : p.dest_leaf;
        if (s == target)
            return false;
        std::vector<std::uint64_t> mask;
        const int need = nextHops(s, target, mask);
        return need >= 0 && fitsCache(mask) && mask[0] == p.route_mask &&
               (need == 0) == (p.route_down != 0);
    }

    double hopsOf(const Pkt &p) const { return p.hops; }

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
               q_min * h_min > q_val * h_val + kUgalThreshold;
    }

    /**
     * First-hop congestion probe: the smallest backlog() over the
     * feasible next-hop out ports from switch @p s toward leaf
     * @p target (the queue a packet would join under the best draw),
     * or -1 when the target is unreachable.  Local: only reads
     * out-port credits of @p s itself.
     */
    int
    bestBacklog(const CongestionView &cv, int s, int target)
    {
        if (s == target)
            return 0;
        const int need = nextHops(s, target, mask_);
        if (need < 0)
            return -1;
        const std::int64_t base =
            cv.portBase(s) + (need == 0 ? lay_->n_up[s] : 0);
        int best = -1;
        for (int w = 0; w < oracle_->maskWords(); ++w)
            for (std::uint64_t m = mask_[w]; m != 0; m &= m - 1) {
                const int b = cv.backlog(base + 64 * w + __builtin_ctzll(m));
                if (best < 0 || b < best)
                    best = b;
            }
        return best;
    }

    /**
     * The oracle's next hops from @p s toward leaf @p target into
     * @p mask (sized here: a rebuild may widen it); returns need.
     */
    int
    nextHops(int s, int target, std::vector<std::uint64_t> &mask) const
    {
        mask.resize(static_cast<std::size_t>(oracle_->maskWords()));
        return oracle_->nextHops(*fc_, s, target,
                                 mode_ == RouteMode::kUpDownRandom,
                                 mask.data());
    }

    /** Whether every choice in @p mask is below port 32. */
    static bool
    fitsCache(const std::vector<std::uint64_t> &mask)
    {
        return mask[0] >> 32 == 0 &&
               std::all_of(mask.begin() + 1, mask.end(),
                           [](std::uint64_t w) { return w == 0; });
    }

    /**
     * The draw discipline: one uniform(count) draw mapping to the k-th
     * port of @p mask in ascending order, as the oracle scan lists them;
     * -1 (no draw) for an empty set.
     */
    int
    drawPort(int s, const std::uint64_t *mask, int words, bool down,
             Rng &rng, bool &sole)
    {
        const int count = UpDownOracle::maskCount(mask, words);
        if (count == 0)
            return -1;
        sole = count == 1;
        const int pick = UpDownOracle::maskSelect(mask, rng.uniform(count));
        return down ? lay_->n_up[s] + pick : pick;
    }

    /** Minimal up hops from @p s to leaf @p target; -1 = none. */
    int
    needFor(int s, int target) const
    {
        return oracle_->minUps(s, target);
    }

    const FoldedClos *fc_;
    const UpDownOracle *oracle_;
    const FabricLayout *lay_;
    RouteMode mode_;
    int vcs_;
    int tpl_;
    std::vector<std::uint64_t> mask_;  //!< nextHops scratch
};

} // namespace rfc

#endif // RFC_SIM_CORE_POLICY_UPDOWN_HPP
