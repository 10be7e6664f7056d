/**
 * @file
 * Incremental (strong) expansion of random folded Clos networks (Sec 5).
 *
 * A minimal RFC upgrade adds two switches to every level except the top,
 * one switch to the top, and R new compute nodes, while rewiring only
 * O(R * l) existing links - no new levels, so the diameter is preserved
 * ("strong expandability").  The rewiring uses the classic random-graph
 * trick: for each new switch pair, remove random existing inter-level
 * links and reconnect their endpoints to the new switches, which keeps
 * every degree intact and the wiring close to uniformly random.
 *
 * ExpansionPlan is the one expansion routine.  It draws every rewire
 * directly in the *final* switch numbering, records the expansion as
 * stages of explicit rewire operations and applies them to a
 * final-sized copy of the base, so the same plan is the offline result
 * (finalTopology()), a replay in place on a live CSR FoldedClos
 * (removeLink/addLink, exercising the rare growSegment path), and a
 * TopologyTimeline of detach/attach events for the runtime.
 */
#ifndef RFC_CLOS_EXPANSION_HPP
#define RFC_CLOS_EXPANSION_HPP

#include <vector>

#include "clos/folded_clos.hpp"
#include "clos/topology_events.hpp"
#include "util/rng.hpp"

namespace rfc {

/**
 * One rewire: `removed` leaves the network; its lower endpoint hooks
 * up to a new upper switch (`added_up`) and its upper endpoint hooks
 * down to a new lower switch (`added_down`).  All ids are in the
 * *final* (fully expanded) switch numbering, which is stable: old
 * switches keep their position within their level, new switches append
 * at each level's end.
 */
struct RewireOp
{
    ClosLink removed;
    ClosLink added_up;
    ClosLink added_down;
};

/** The rewires of one (step, level-pair) increment, in apply order. */
struct ExpansionStage
{
    int step = 0;   //!< 0-based expansion increment
    int level = 0;  //!< lower level of the rewired (level, level+1) pair
    std::vector<RewireOp> ops;
};

/**
 * A strong expansion decomposed into explicit staged rewires.
 *
 * Each step adds 2 switches per level below the top, 1 top switch and
 * R terminals.  @p base must be radix-regular; the result keeps radix
 * regularity, while up/down routability should be rechecked by the
 * caller (guaranteed w.h.p. only below the Theorem 4.2 threshold).
 * The constructor relinks its working copy at every step start, which
 * fixes every switch's down-port order; applying every stage to
 * preStaged() in order ends sameTopology-equal to finalTopology().
 *
 * For the *live* drill the plan provides the union/overlay encoding:
 * unionTopology() holds every link that exists at any point of the
 * expansion (base links plus all staged additions; removed links are
 * retained and masked dead later), so a running engine's port
 * numbering never changes, and liveTimeline() emits the matching
 * detach/attach/commission/activate schedule, gated to the base
 * terminals from cycle 0.
 */
class ExpansionPlan
{
  public:
    /**
     * Plan @p steps >= 1 increments of @p base (consumes @p rng).
     * @throws std::invalid_argument below 1 step or 2 levels;
     *         std::runtime_error when the network is too small to
     *         rewire.
     */
    ExpansionPlan(const FoldedClos &base, int steps, Rng &rng);

    int steps() const { return steps_; }
    const FoldedClos &base() const { return base_; }

    /** The expanded network, in the final switch numbering. */
    const FoldedClos &finalTopology() const { return final_; }

    /** All stages, in apply order (step-major, then level). */
    const std::vector<ExpansionStage> &stages() const { return stages_; }

    long long rewired() const { return rewired_; }
    long long addedTerminals() const { return added_terminals_; }

    /** Terminals attached before any expansion step runs. */
    long long baseTerminals() const { return base_.numTerminals(); }

    /** Absolute active-terminal total once step @p k has completed. */
    long long
    activeTerminalsAfter(int k) const
    {
        return (static_cast<long long>(base_.numLeaves()) + 2LL * (k + 1)) *
               base_.terminalsPerLeaf();
    }

    /**
     * The final-sized network holding only the base links (remapped to
     * final numbering): every new switch is present but unwired, every
     * new terminal attached but expected to stay inactive.  The
     * starting point for applyStage() replay.
     */
    FoldedClos preStaged() const;

    /**
     * preStaged() plus *every* link any stage adds (removed links are
     * retained): the immutable fabric a live run is built on, with
     * staged links masked dead until their attach event.  Donor
     * switches briefly hold more than R/2 up links here, which is the
     * production trigger of the CSR growSegment rebuild path.
     */
    FoldedClos unionTopology() const;

    /**
     * Replay one stage in place: removeLink(removed) then
     * addLink(added_up), addLink(added_down) per op, in op order.
     * Stages must be applied in stages() order (later stages may rewire
     * links added by earlier ones).  @throws std::logic_error when a
     * removed link is absent.
     */
    void applyStage(FoldedClos &fc, const ExpansionStage &st) const;

    /**
     * The runtime schedule of this plan against unionTopology():
     * step k fires at @p start + k * @p step_spacing - commissioning
     * markers first, then each stage's detach/attach triplets in op
     * order - and the step's new terminals pass their activation
     * barrier @p activate_delay cycles later.  The timeline starts with
     * baseTerminals() active (TopologyTimeline::initialActive()).
     */
    TopologyTimeline liveTimeline(long long start, long long step_spacing,
                                  long long activate_delay) const;

  private:
    FoldedClos base_, final_;
    int steps_ = 0;
    std::vector<ExpansionStage> stages_;
    std::vector<std::vector<int>> new_switches_;  //!< per step
    long long rewired_ = 0;
    long long added_terminals_ = 0;
};

/**
 * Generic live-upgrade plan between two aligned topologies: the union
 * fabric plus the detach/attach schedule morphing @p from into @p to.
 * Switch (level, position) pairs identify; @p to must dominate @p from
 * in every level count and share radix/terminals-per-leaf.  Links in
 * from-minus-to detach, links in to-minus-from are staged and attach -
 * the CFT "forklift" counterpart of an ExpansionPlan, where the two
 * link sets barely overlap and nearly everything rewires.
 */
struct MorphPlan
{
    FoldedClos union_topology;
    std::vector<ClosLink> detach;  //!< union numbering (= to numbering)
    std::vector<ClosLink> attach;
    long long from_terminals = 0;
    long long to_terminals = 0;

    /**
     * Detaches and attaches at @p cycle (detaches first), commission
     * markers for switches with no link in @p from, and the terminal
     * activation barrier @p activate_delay cycles later; from_terminals
     * are active from cycle 0.
     */
    TopologyTimeline liveTimeline(long long cycle,
                                  long long activate_delay) const;
};

/** Build the morph plan from @p from to @p to (see MorphPlan). */
MorphPlan planMorph(const FoldedClos &from, const FoldedClos &to);

} // namespace rfc

#endif // RFC_CLOS_EXPANSION_HPP
