/**
 * @file
 * Scheduled topology-change events: the generalization of the fault
 * pipeline (clos/faults.hpp) from link fail/repair to *growth*.
 *
 * The paper's strong-expandability claim (Section 5, Figure 7) is an
 * offline statement: an RFC grows by rewiring only O(R * l) links.
 * This module makes it a runtime statement.  A TopologyTimeline
 * schedules expansion events - staged links detaching and attaching,
 * switches being commissioned, new terminals passing their activation
 * barrier - against a *union* topology that already contains every
 * link any stage will ever add (staged links simply start dead in the
 * LinkFaultState overlay).  The engine applies the events at its
 * existing cycle-hook barrier while packets fly, exactly like fault
 * events, and the up/down oracle extends itself incrementally
 * (UpDownOracle::applyTopologyEvent).
 *
 * Event semantics (the attach/repair distinction matters):
 *
 *  - kFail / kRepair: a live link dies / a *previously failed* link
 *    comes back: the runtime fault drill (randomFailRepair), kept
 *    distinct from detach/attach so fault and expansion traffic
 *    separate in the counters.
 *  - kDetach / kAttach: one rewire half.  An attached link is *staged*:
 *    it must exist in the bound topology and starts dead (see
 *    initialDead()), coming alive only when its attach event fires.  A
 *    detached link was alive and never comes back by itself.
 *  - kAddSwitch: commissioning marker for a pre-staged switch (its
 *    links are all staged, so the switch is invisible to routing until
 *    they attach); pure accounting, no overlay change.
 *  - kActivateTerminals: raises the engine's active-terminal count to
 *    `count` (an absolute total).  Terminals activate as a contiguous
 *    prefix and begin injecting a deterministic stagger after the
 *    barrier; they never deactivate.
 *
 * Ordering contract: events are kept sorted by cycle with insertion
 * order as the tie-break, and the engine applies all events of a cycle
 * in that order inside one barrier, before any traffic of that cycle
 * moves.  Edge semantics, pinned by test_fault_timeline:
 *
 *  - An event at cycle c applies at the *start* of cycle c, before any
 *    packet generation, routing or movement of that cycle.  Cycle-0
 *    events therefore describe the initial link state: a run with
 *    fail(0, ...) events is bit-identical to a run whose oracle was
 *    built on a pre-masked overlay (clos/faults.hpp LinkFaultState).
 *  - Multiple events on the same cycle apply back-to-back inside one
 *    barrier, in insertion order.  fail(c, l) inserted before
 *    repair(c, l) nets to a live link, the reverse insertion leaves it
 *    dead; in-flight traffic never observes the intermediate states.
 */
#ifndef RFC_CLOS_TOPOLOGY_EVENTS_HPP
#define RFC_CLOS_TOPOLOGY_EVENTS_HPP

#include <cstdint>
#include <vector>

#include "clos/folded_clos.hpp"

namespace rfc {

/** Kind of one scheduled topology change. */
enum class TopoOp : std::uint8_t
{
    kFail,               //!< live link dies (fault)
    kRepair,             //!< previously failed link comes back
    kDetach,             //!< rewire: link leaves the topology for good
    kAttach,             //!< rewire: staged (initially dead) link goes live
    kAddSwitch,          //!< pre-staged switch commissioned (accounting)
    kActivateTerminals,  //!< active-terminal count raised to `count`
};

/** One scheduled runtime topology event. */
struct TopologyEvent
{
    long long cycle = 0;      //!< simulation cycle the event fires at
    TopoOp op = TopoOp::kFail;
    std::int32_t lower = -1;  //!< link endpoint / kAddSwitch switch id
    std::int32_t upper = -1;  //!< link endpoint (level i+1)
    long long count = 0;      //!< kActivateTerminals: new absolute total
};

/**
 * Deterministic schedule of topology-change events, applied by the
 * engine at cycle barriers: sorted by cycle, insertion order breaks
 * ties, and that order is part of the timeline definition - results
 * are bit-identical at any `--jobs` / `--sim-jobs` value.
 */
class TopologyTimeline
{
  public:
    TopologyTimeline() = default;

    /** Schedule one event (stable insert, sorted by cycle). */
    TopologyTimeline &add(TopologyEvent ev);

    TopologyTimeline &
    fail(long long cycle, int lower, int upper)
    {
        return add({cycle, TopoOp::kFail, lower, upper, 0});
    }

    TopologyTimeline &
    repair(long long cycle, int lower, int upper)
    {
        return add({cycle, TopoOp::kRepair, lower, upper, 0});
    }

    TopologyTimeline &
    detach(long long cycle, int lower, int upper)
    {
        return add({cycle, TopoOp::kDetach, lower, upper, 0});
    }

    TopologyTimeline &
    attach(long long cycle, int lower, int upper)
    {
        return add({cycle, TopoOp::kAttach, lower, upper, 0});
    }

    TopologyTimeline &
    addSwitch(long long cycle, int switch_id)
    {
        return add({cycle, TopoOp::kAddSwitch, switch_id, -1, 0});
    }

    /** Raise the active-terminal total to @p total at @p cycle. */
    TopologyTimeline &
    activateTerminals(long long cycle, long long total)
    {
        return add({cycle, TopoOp::kActivateTerminals, -1, -1, total});
    }

    /**
     * The canonical fail/recover drill: @p count uniformly random
     * distinct links of @p fc fail at @p fail_at and - unless
     * @p repair_at < 0 - are all repaired at @p repair_at, in the same
     * order.  The link draw depends only on @p seed (derive it with
     * deriveSeed so sweeps stay reproducible at any parallelism).
     * Throws std::out_of_range when @p count exceeds the link count
     * and std::invalid_argument when 0 <= repair_at <= fail_at.
     */
    static TopologyTimeline randomFailRepair(const FoldedClos &fc,
                                             std::size_t count,
                                             long long fail_at,
                                             long long repair_at,
                                             std::uint64_t seed);

    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }

    /** All events, sorted by (cycle, insertion order). */
    const std::vector<TopologyEvent> &events() const { return events_; }

    /**
     * Every staged link: the (lower, upper) pair of each kAttach
     * event, in event order.  These links must exist in the bound
     * topology and start *dead* in the overlay before the run; the
     * runtime applies exactly this list at construction.
     */
    std::vector<ClosLink> initialDead() const;

    /**
     * Cycle of the first service-disrupting event (kFail or kDetach),
     * or -1 when none - the recovery-analysis anchor.
     */
    long long firstDisruptionCycle() const;

    /** Cycle of the last event of any kind, or -1 when empty. */
    long long lastEventCycle() const;

  private:
    std::vector<TopologyEvent> events_;
};

} // namespace rfc

#endif // RFC_CLOS_TOPOLOGY_EVENTS_HPP
