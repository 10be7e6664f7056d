/**
 * @file
 * Link-fault machinery for the resiliency studies (Section 7) and the
 * runtime fault-injection layer.
 *
 * Two fault models coexist:
 *
 *  - *Static snapshots*: copy the topology with links physically
 *    removed up front (randomLinkOrder / withLinksRemoved), rebuild
 *    routing from scratch, run a fresh simulation per fault level.
 *    This reproduces the paper's before/after steady states (Table 3,
 *    Figures 11-12).
 *
 *  - *Dynamic overlay*: keep the topology object immutable (so port
 *    numbering and adjacency indices stay stable for a running
 *    simulator) and flip links dead/alive in a LinkFaultState mask
 *    while traffic is flowing, driven by a scheduled TopologyTimeline
 *    (clos/topology_events.hpp).  The up/down oracle is bound to the
 *    overlay and rebuilt once per change barrier (UpDownOracle::build),
 *    which is what the VctEngine's online fail/recovery path consumes.
 */
#ifndef RFC_CLOS_FAULTS_HPP
#define RFC_CLOS_FAULTS_HPP

#include <cstdint>
#include <vector>

#include "clos/folded_clos.hpp"
#include "util/rng.hpp"

namespace rfc {

/** A uniformly random permutation of all inter-switch links of @p fc. */
std::vector<ClosLink> randomLinkOrder(const FoldedClos &fc, Rng &rng);

/**
 * Copy @p fc with the first @p count links of @p order removed.
 * @pre count <= order.size().
 */
FoldedClos withLinksRemoved(const FoldedClos &fc,
                            const std::vector<ClosLink> &order,
                            std::size_t count);

/**
 * Remove @p count random links in place.
 * @return the removed links.
 */
std::vector<ClosLink> removeRandomLinks(FoldedClos &fc, std::size_t count,
                                        Rng &rng);

/**
 * Dead/alive mask over the links of an (immutable) FoldedClos.
 *
 * The topology's adjacency lists are never touched, so local port
 * indices - which the simulator's FabricLayout and the oracle's choice
 * bitmasks are keyed by - remain valid across fail/repair events.
 * Parallel wires between the same switch pair are tracked per
 * instance: the k-th occurrence of `upper` in up(lower) pairs with the
 * k-th occurrence of `lower` in down(upper) (addLink appends to both
 * lists together, so occurrence order is consistent by construction).
 */
class LinkFaultState
{
  public:
    LinkFaultState() = default;

    /** Bind to @p fc with every link alive.  @p fc must outlive this. */
    explicit LinkFaultState(const FoldedClos &fc);

    /**
     * Kill (@p dead = true) or revive one instance of the link
     * lower-upper.  The first instance whose state differs is flipped.
     * @return true when a state change happened (false: no such link,
     * or every instance already had the requested state).
     */
    bool setLink(int lower, int upper, bool dead);

    /** Is the @p i-th up link of switch @p s dead? */
    bool
    upDead(int s, std::size_t i) const
    {
        return up_dead_[static_cast<std::size_t>(s)][i] != 0;
    }

    /** Is the @p i-th down link of switch @p s dead? */
    bool
    downDead(int s, std::size_t i) const
    {
        return down_dead_[static_cast<std::size_t>(s)][i] != 0;
    }

    /** Number of currently dead links. */
    std::size_t deadLinks() const { return dead_; }

  private:
    const FoldedClos *fc_ = nullptr;
    std::vector<std::vector<std::uint8_t>> up_dead_, down_dead_;
    std::size_t dead_ = 0;
};

} // namespace rfc

#endif // RFC_CLOS_FAULTS_HPP
