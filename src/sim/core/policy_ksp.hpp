/**
 * @file
 * Routing policy of the direct-network simulator: a k-shortest path is
 * drawn from the KspRoutes table at injection and followed hop by hop,
 * with hop-escalating virtual channels (a packet that has crossed h
 * links occupies VC min(h, vcs-1)) for deadlock freedom.  Plugged into
 * VctEngine as its compile-time Policy.
 *
 * Flowlet switching (PathPolicy::kFlowletEcmp) is the compromise
 * between per-packet ECMP (best load spreading, worst reordering) and
 * per-flow ECMP (no reordering, worst elephant collisions): bursts stay
 * on one path, and only an idle gap - where reordering cannot happen
 * anyway - moves the flow off a congested route.  Its per-flow state is
 * local knowledge under the CongestionView contract: flows are keyed
 * by source terminal, so only that terminal's injections touch them,
 * and re-draws consume the engine's RNG stream in its deterministic
 * injection order.  The cached paths point into the KspRoutes table,
 * which stays fixed for the policy's lifetime (the direct network has
 * no topology timeline), so they never go stale.
 */
#ifndef RFC_SIM_CORE_POLICY_KSP_HPP
#define RFC_SIM_CORE_POLICY_KSP_HPP

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "graph/graph.hpp"
#include "routing/ksp_tables.hpp"
#include "sim/core/config.hpp"
#include "sim/core/congestion.hpp"
#include "sim/core/layout.hpp"
#include "util/rng.hpp"

namespace rfc {

/** Path selection discipline at injection. */
enum class PathPolicy
{
    kShortestEcmp,  //!< uniform among minimal-length paths
    kAllKsp,        //!< uniform among all k stored paths
    /**
     * Flowlet-switching ECMP: a shortest path is drawn per *flowlet*
     * rather than per packet - consecutive packets of a (terminal,
     * destination) flow reuse one path until the flow has been idle
     * for KspPolicy::kFlowletGap cycles, then the path is re-drawn.
     */
    kFlowletEcmp,
};

class KspPolicy
{
  public:
    /** Idle cycles after which a flowlet's path is re-drawn. */
    static constexpr long long kFlowletGap = 64;

    struct Pkt
    {
        // gen, next, ready and noroute are engine-owned: see the
        // "Engine-owned Pkt fields" convention atop sim/core/engine.hpp.
        // Four 4-byte fields put the pointer on an 8-byte boundary, and
        // the narrow fields share the last word: 31 bytes in 32.
        std::int32_t gen;
        std::int32_t next;
        std::int32_t ready;
        // Policy routing state.
        std::int32_t dest_sw;    //!< destination switch
        const Path *path;        //!< chosen at injection (null = local)
        std::int16_t dest_local; //!< terminal index at dest_sw
        std::int16_t hop;        //!< links crossed so far
        std::int16_t cur_out;    //!< resolved out port (-1 = not yet)
        std::uint8_t noroute;
    };
    static_assert(sizeof(Pkt) == 32, "KspPolicy::Pkt is not 32 B");

    KspPolicy(const Graph &g, const KspRoutes &routes,
              const FabricLayout &lay, const SimConfig &cfg,
              int hosts_per_switch, PathPolicy path_policy)
        : g_(&g), routes_(&routes), lay_(&lay), vcs_(cfg.vcs),
          hosts_(hosts_per_switch), path_policy_(path_policy)
    {}

    bool
    routable(long long term, long long dest) const
    {
        int src_sw = static_cast<int>(term / hosts_);
        int dst_sw = static_cast<int>(dest / hosts_);
        return src_sw == dst_sw || !routes_->paths(src_sw, dst_sw).empty();
    }

    int
    inject(const CongestionView &cv, long long term, std::int32_t dest,
           Rng &rng, Pkt &p)
    {
        // Injection always targets VC 0 (a packet with 0 hops crossed);
        // the path is drawn only once that VC has credit.
        if (cv.injCredits(term)[0] <= 0)
            return -1;
        int src_sw = static_cast<int>(term / hosts_);
        int dst_sw = dest / hosts_;
        p.dest_sw = dst_sw;
        p.dest_local = static_cast<std::int16_t>(dest % hosts_);
        p.hop = 0;
        p.cur_out = -1;
        if (src_sw == dst_sw)
            p.path = nullptr;
        else if (path_policy_ == PathPolicy::kAllKsp)
            p.path = routes_->pickPath(src_sw, dst_sw, rng);
        else if (path_policy_ == PathPolicy::kShortestEcmp)
            p.path = routes_->pickShortest(src_sw, dst_sw, rng);
        else
            p.path = flowletPath(term, dest, src_sw, dst_sw, cv.now(), rng);
        return 0;
    }

    int
    routeOut(const CongestionView &cv, int s, Pkt &p, Rng &rng,
             bool &sole)
    {
        (void)cv;  // oblivious: the path was fixed at injection
        (void)rng;
        sole = true;  // ejection or the path's next hop: no alternative
        if (s == p.dest_sw)
            return lay_->n_net[s] + p.dest_local;  // ejection
        // The path is fixed at injection, so the out port is resolved
        // once per hop and cached - blocked packets re-arbitrate every
        // cycle and must not rescan the adjacency list each time.
        if (p.cur_out < 0) {
            // Follow the precomputed path; hop h means path[h] == s.
            int next_sw = (*p.path)[p.hop + 1];
            const auto &adj = g_->neighbors(s);
            auto it = std::find(adj.begin(), adj.end(), next_sw);
            p.cur_out = static_cast<std::int16_t>(it - adj.begin());
        }
        return p.cur_out;
    }

    void
    vcRange(const Pkt &p, int &lo, int &hi) const
    {
        // The legal channel is fully determined by the hop count.
        lo = std::min<int>(p.hop, vcs_ - 1);
        hi = lo + 1;
    }

    int
    chooseOutVc(const CongestionView &cv, std::int64_t o_gid,
                const Pkt &p, Rng &rng)
    {
        (void)rng;
        int out_vc = std::min<int>(p.hop, vcs_ - 1);
        return cv.credit(o_gid, out_vc) > 0 ? out_vc : -1;
    }

    void
    onForward(Pkt &p)
    {
        ++p.hop;
        p.cur_out = -1;
    }

    double hopsOf(const Pkt &p) const { return p.hop; }

  private:
    struct Flowlet
    {
        const Path *path = nullptr;
        long long last_send = 0;
    };

    /** The flow's path at cycle @p now, re-drawn after an idle gap. */
    const Path *
    flowletPath(long long term, std::int32_t dest, int src_sw, int dst_sw,
                long long now, Rng &rng)
    {
        const std::uint64_t key = (static_cast<std::uint64_t>(term) << 32) ^
                                  static_cast<std::uint32_t>(dest);
        Flowlet &f = flows_[key];
        if (f.path == nullptr || now - f.last_send >= kFlowletGap)
            f.path = routes_->pickShortest(src_sw, dst_sw, rng);
        f.last_send = now;
        return f.path;
    }

    const Graph *g_;
    const KspRoutes *routes_;
    const FabricLayout *lay_;
    int vcs_;
    int hosts_;
    PathPolicy path_policy_;
    //! Flowlet state per (terminal, destination).
    std::unordered_map<std::uint64_t, Flowlet> flows_;
};

} // namespace rfc

#endif // RFC_SIM_CORE_POLICY_KSP_HPP
