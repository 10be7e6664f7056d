/**
 * @file
 * UGAL-style adaptive routing policy for folded Clos networks: choose
 * between the minimal up/down route and a Valiant-style non-minimal
 * route *per packet at injection*, by comparing queue-depth x
 * hop-count products read from the CongestionView.
 *
 * The classic UGAL-L decision adapted to the credit-based VCT fabric:
 * the local congestion estimate of a candidate route is the smallest
 * backlog (consumed downstream slots, CongestionView::backlog) over
 * the feasible first-hop out ports at the source leaf - backpressure
 * from a congested funnel propagates to exactly those credits.  With
 * h_min / h_val the minimal-hop estimates of the two routes,
 *
 *   route minimally  iff  q_min * h_min <= q_val * h_val + threshold
 *
 * (threshold = SimConfig::ugal_threshold, biasing toward minimal).
 * On friendly traffic q_min stays low and the policy behaves like
 * minimal up/down; under adversarial funnels q_min grows until
 * packets spill onto Valiant detours, capping the degradation without
 * paying Valiant's 2x path tax when the network is calm.
 *
 * Deadlock freedom is inherited from the Valiant argument: every
 * packet (minimal or detoured) lives in the phase-partitioned VC
 * scheme (phase 0 = lower half toward an intermediate, phase 1 =
 * upper half toward the destination; minimal packets start in phase
 * 1), so vcs >= 2 is required, enforced by the simulator front end.
 *
 * Sharding safety: the decision runs at injection on the shard owning
 * the source terminal, and reads only the source leaf's own out-port
 * credits - exactly the shard-local slice the CongestionView contract
 * allows.  All routing mechanics (memoized choice sets, phase
 * switching, wide fallbacks) are delegated to an embedded
 * UpDownPolicy fixed in kValiant mode.
 */
#ifndef RFC_SIM_CORE_POLICY_ADAPTIVE_HPP
#define RFC_SIM_CORE_POLICY_ADAPTIVE_HPP

#include <cstdint>

#include "clos/folded_clos.hpp"
#include "routing/updown.hpp"
#include "sim/core/config.hpp"
#include "sim/core/congestion.hpp"
#include "sim/core/layout.hpp"
#include "sim/core/policy_updown.hpp"
#include "util/rng.hpp"

namespace rfc {

class AdaptiveUpDownPolicy
{
  public:
    using Pkt = UpDownPolicy::Pkt;

    AdaptiveUpDownPolicy(const FoldedClos &fc, const UpDownOracle &oracle,
                         const FabricLayout &lay, const SimConfig &cfg)
        : base_(fc, oracle, lay, valiantBase(cfg)), vcs_(cfg.vcs),
          tpl_(fc.terminalsPerLeaf()), nleaves_(fc.numLeaves()),
          threshold_(cfg.ugal_threshold)
    {
    }

    bool
    routable(long long term, long long dest)
    {
        return base_.routable(term, dest);
    }

    int
    injectVc(const CongestionView &cv, long long term,
             std::int32_t dest, Rng &rng)
    {
        // UGAL decision first (it fixes the packet's starting phase,
        // which the injection-VC range depends on).
        const int src_leaf = static_cast<int>(term / tpl_);
        const int dst_leaf = dest / tpl_;
        std::int32_t inter = -1;
        std::int8_t phase = 1;
        if (src_leaf != dst_leaf && nleaves_ > 2) {
            // Sample one candidate intermediate like Valiant does.
            std::int32_t cand = -1;
            for (int tries = 0; tries < 16; ++tries) {
                auto c = static_cast<std::int32_t>(rng.uniform(
                    static_cast<std::uint64_t>(nleaves_)));
                if (c == src_leaf || c == dst_leaf)
                    continue;
                if (base_.minUpsTo(src_leaf, c) >= 0 &&
                    base_.minUpsTo(c, dst_leaf) >= 0) {
                    cand = c;
                    break;
                }
            }
            if (cand >= 0) {
                // Up+down hop estimates: an up/down route of u up
                // hops descends u switches too.
                const double h_min =
                    2.0 * base_.minUpsTo(src_leaf, dst_leaf);
                const double h_val =
                    2.0 * (base_.minUpsTo(src_leaf, cand) +
                           base_.minUpsTo(cand, dst_leaf));
                const int q_min =
                    base_.bestBacklog(cv, src_leaf, dst_leaf);
                const int q_val = base_.bestBacklog(cv, src_leaf, cand);
                if (q_min >= 0 && q_val >= 0 &&
                    q_min * h_min > q_val * h_val + threshold_) {
                    inter = cand;
                    phase = 0;
                }
            }
        }
        base_.setPendingValiant(inter, phase);

        // Same injection draw discipline as the base policy: the
        // highest-credit VC of the packet's phase range, random among
        // ties.
        const std::int8_t *credits = cv.injCredits(term);
        const int half = vcs_ / 2;
        const int vc_lo = phase == 0 ? 0 : half;
        const int vc_hi = phase == 0 ? half : vcs_;
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
        base_.initPacket(p, term, dest, rng);
    }

    int
    routeOut(const CongestionView &cv, int s, Pkt &p, Rng &rng,
             int &fixed_vc, bool &sole)
    {
        return base_.routeOut(cv, s, p, rng, fixed_vc, sole);
    }

    void
    vcRange(const Pkt &p, int &lo, int &hi) const
    {
        base_.vcRange(p, lo, hi);
    }

    int
    chooseOutVc(const CongestionView &cv, std::int64_t o_gid,
                const Pkt &p, Rng &rng)
    {
        return base_.chooseOutVc(cv, o_gid, p, rng);
    }

    void onForward(Pkt &p) { base_.onForward(p); }

    double hopsOf(const Pkt &p) const { return base_.hopsOf(p); }

    void onTopologyChange() { base_.onTopologyChange(); }

  private:
    /** The embedded router always runs the Valiant VC discipline. */
    static SimConfig
    valiantBase(SimConfig cfg)
    {
        cfg.route_mode = RouteMode::kValiant;
        return cfg;
    }

    UpDownPolicy base_;
    int vcs_;
    int tpl_;
    int nleaves_;
    double threshold_;
};

} // namespace rfc

#endif // RFC_SIM_CORE_POLICY_ADAPTIVE_HPP
