/**
 * @file
 * CongestionView: the read-only congestion contract between VctEngine
 * and its routing policies.
 *
 * The engine used to hand policies bare credit pointers at two fixed
 * call sites, which made any congestion-aware decision structurally
 * impossible: a policy could see the one credit row it was given and
 * nothing else.  This view replaces those pointers with a uniform,
 * lightweight window over the engine's hot state - per-output-port
 * credits (and the backlog they imply) and per-terminal injection
 * credits - passed at every policy decision point (injection, route
 * resolution, output-VC selection).  It is a handful of raw pointers
 * into the engine's SoA arrays, built on the stack per call; policies
 * that ignore it pay nothing.
 *
 * What a policy reads: the view can address any port, but a decision
 * models what one switch knows, so the policies read only
 *
 *  - out-port credits of the switch the decision is made at (for
 *    UGAL, the source leaf at injection) - the backpressure signal
 *    from the downstream buffers, and
 *  - injection credits of the deciding terminal.
 *
 * A peer switch's input queues are not local knowledge; the downstream
 * congestion of a link is visible locally as consumed credits
 * (backlog() below).  The rule is documented, not runtime-enforced:
 * enforcing it would put a check on the hottest paths of the engine,
 * and widening what a policy reads changes its results.
 */
#ifndef RFC_SIM_CORE_CONGESTION_HPP
#define RFC_SIM_CORE_CONGESTION_HPP

#include <cstdint>

#include "sim/core/layout.hpp"

namespace rfc {

class CongestionView
{
  public:
    CongestionView(const FabricLayout &lay, int vcs, int buf_packets,
                   const std::int16_t *out_credits,
                   const std::int8_t *inj_credits, long long now)
        : lay_(&lay), vcs_(vcs), buf_(buf_packets),
          out_credits_(out_credits), inj_credits_(inj_credits), now_(now)
    {
    }

    /** Current simulation cycle of the deciding call. */
    long long now() const { return now_; }

    /** Port-gid base of switch @p s (gid = portBase(s) + local port). */
    std::int64_t
    portBase(int s) const
    {
        return lay_->iport_off[s];
    }

    // ---- output side: downstream backpressure ----------------------

    /** Credits left on out port @p out_gid, channel @p vc. */
    int
    credit(std::int64_t out_gid, int vc) const
    {
        return out_credits_[out_gid * vcs_ + vc];
    }

    /**
     * Occupied downstream slots of out port @p out_gid: credits
     * consumed across all VCs, i.e. packets buffered at (or in flight
     * toward) the peer input port.  The local backpressure signal
     * adaptive policies steer by; 0 on an idle link, vcs*buf_packets on
     * a fully backed-up one.
     */
    int
    backlog(std::int64_t out_gid) const
    {
        int free = 0;
        for (int v = 0; v < vcs_; ++v)
            free += out_credits_[out_gid * vcs_ + v];
        return vcs_ * buf_ - free;
    }

    // ---- terminal side: injection credits --------------------------

    /** The per-VC injection credit row of terminal @p term. */
    const std::int8_t *
    injCredits(long long term) const
    {
        return inj_credits_ + term * vcs_;
    }

    const FabricLayout &layout() const { return *lay_; }

  private:
    const FabricLayout *lay_;
    int vcs_;
    int buf_;
    const std::int16_t *out_credits_;
    const std::int8_t *inj_credits_;
    long long now_;
};

} // namespace rfc

#endif // RFC_SIM_CORE_CONGESTION_HPP
