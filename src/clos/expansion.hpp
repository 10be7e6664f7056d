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
 * Two consumers share one rewiring routine (identical RNG draw
 * sequence):
 *
 *  - strongExpand(): the offline one-shot result, as before.
 *  - ExpansionPlan: the same expansion decomposed into *stages* of
 *    explicit rewire operations in the final switch numbering, so it
 *    can be replayed in place on a live CSR FoldedClos
 *    (removeLink/addLink, exercising the rare growSegment path), fed
 *    to the runtime as a TopologyTimeline of detach/attach events, or
 *    cross-checked op for op against the offline result.
 */
#ifndef RFC_CLOS_EXPANSION_HPP
#define RFC_CLOS_EXPANSION_HPP

#include <vector>

#include "clos/folded_clos.hpp"
#include "clos/topology_events.hpp"
#include "util/rng.hpp"

namespace rfc {

/** Outcome of one or more expansion steps. */
struct ExpansionResult
{
    FoldedClos topology;      //!< expanded network
    long long rewired = 0;    //!< links detached and reattached
    long long added_terminals = 0;
};

/**
 * Apply @p steps minimal strong-expansion increments to @p fc.
 *
 * Each step adds 2 switches per level below the top, 1 top switch and
 * R terminals.  @p fc must be radix-regular.  The result keeps radix
 * regularity; up/down routability should be rechecked by the caller
 * (guaranteed w.h.p. only below the Theorem 4.2 threshold).
 */
ExpansionResult strongExpand(const FoldedClos &fc, int steps, Rng &rng);

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
 * The constructor consumes @p rng exactly like
 * strongExpand(base, steps, rng) - draw for draw - so a plan built
 * from a given (base, steps, seed) describes precisely that offline
 * expansion: applyAll() on preStaged() ends sameTopology-equal to
 * finalTopology().
 *
 * For the *live* drill the plan provides the union/overlay encoding:
 * unionTopology() holds every link that exists at any point of the
 * expansion (base links plus all staged additions; removed links are
 * retained and masked dead later), so a running engine's port
 * numbering never changes, and liveTimeline() emits the matching
 * detach/attach/commission/activate schedule.
 */
class ExpansionPlan
{
  public:
    /** Plan @p steps increments of @p base (consumes @p rng). */
    ExpansionPlan(const FoldedClos &base, int steps, Rng &rng);

    int steps() const { return steps_; }
    const FoldedClos &base() const { return base_; }

    /** The offline end state (== strongExpand's topology). */
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
     * starting point for applyStage()/applyAll() replay.
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

    /** Replay every stage onto @p fc (start from preStaged()). */
    void applyAll(FoldedClos &fc) const;

    /**
     * The runtime schedule of this plan against unionTopology():
     * step k fires at @p start + k * @p step_spacing - commissioning
     * markers first, then each stage's detach/attach triplets in op
     * order - and the step's new terminals pass their activation
     * barrier @p activate_delay cycles later.
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
     * activation barrier @p activate_delay cycles later.
     */
    TopologyTimeline liveTimeline(long long cycle,
                                  long long activate_delay) const;
};

/** Build the morph plan from @p from to @p to (see MorphPlan). */
MorphPlan planMorph(const FoldedClos &from, const FoldedClos &to);

} // namespace rfc

#endif // RFC_CLOS_EXPANSION_HPP
