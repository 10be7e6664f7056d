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
 * legal under the CongestionView contract because flows are keyed by
 * source terminal and every injection decision for a terminal runs on
 * the shard that owns it: each shard's policy copy only touches flows
 * of its own terminals, and re-draws consume that shard's RNG stream
 * in its deterministic injection order.
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
     * for SimConfig::flowlet_gap cycles, then the path is re-drawn.
     */
    kFlowletEcmp,
};

class KspPolicy
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
        const Path *path;        //!< chosen at injection (null = local)
        std::int32_t dest_sw;    //!< destination switch
        std::int16_t dest_local; //!< terminal index at dest_sw
        std::int16_t hop;        //!< links crossed so far
        std::int16_t cur_out;    //!< resolved out port (-1 = not yet)
    };

    KspPolicy(const Graph &g, const KspRoutes &routes,
              const FabricLayout &lay, const SimConfig &cfg,
              int hosts_per_switch, PathPolicy path_policy)
        : g_(&g), routes_(&routes), lay_(&lay), vcs_(cfg.vcs),
          hosts_(hosts_per_switch), path_policy_(path_policy),
          flowlet_gap_(cfg.flowlet_gap)
    {}

    bool
    routable(long long term, long long dest) const
    {
        int src_sw = static_cast<int>(term / hosts_);
        int dst_sw = static_cast<int>(dest / hosts_);
        return src_sw == dst_sw || !routes_->paths(src_sw, dst_sw).empty();
    }

    int
    injectVc(const CongestionView &cv, long long term,
             std::int32_t dest, Rng &rng)
    {
        (void)dest;
        (void)rng;
        // The flowlet clock: injectVc may fail and retry on later
        // cycles, and only the call right before initPacket counts.
        now_ = cv.now();
        // Injection always targets VC 0 (a packet with 0 hops crossed).
        return cv.injCredit(term, 0) > 0 ? 0 : -1;
    }

    void
    initPacket(Pkt &p, long long term, std::int32_t dest, Rng &rng)
    {
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
            p.path = flowletPath(term, dest, src_sw, dst_sw, rng);
    }

    int
    routeOut(const CongestionView &cv, int s, Pkt &p, Rng &rng,
             int &fixed_vc, bool &sole)
    {
        (void)cv;  // oblivious: the path was fixed at injection
        (void)rng;
        fixed_vc = -1;
        sole = true;  // ejection or the path's next hop: no alternative
        if (s == p.dest_sw)
            return lay_->n_net[s] + p.dest_local;  // ejection
        fixed_vc = std::min<int>(p.hop, vcs_ - 1);
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

    /** Cached flowlet paths point into the routes table: drop them. */
    void onTopologyChange() { flows_.clear(); }

  private:
    struct Flowlet
    {
        const Path *path = nullptr;
        long long last_send = 0;
    };

    /** The flow's path, re-drawn when it idled flowlet_gap_ cycles. */
    const Path *
    flowletPath(long long term, std::int32_t dest, int src_sw, int dst_sw,
                Rng &rng)
    {
        const std::uint64_t key = (static_cast<std::uint64_t>(term) << 32) ^
                                  static_cast<std::uint32_t>(dest);
        Flowlet &f = flows_[key];
        if (f.path == nullptr || now_ - f.last_send >= flowlet_gap_)
            f.path = routes_->pickShortest(src_sw, dst_sw, rng);
        f.last_send = now_;
        return f.path;
    }

    const Graph *g_;
    const KspRoutes *routes_;
    const FabricLayout *lay_;
    int vcs_;
    int hosts_;
    PathPolicy path_policy_;
    long long flowlet_gap_;  //!< SimConfig::flowlet_gap
    long long now_ = 0;      //!< cycle of the last injectVc
    //! Flowlet state per (terminal, destination); shard-local.
    std::unordered_map<std::uint64_t, Flowlet> flows_;
};

} // namespace rfc

#endif // RFC_SIM_CORE_POLICY_KSP_HPP
