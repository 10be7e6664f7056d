/**
 * @file
 * Cycle-driven virtual cut-through packet simulator (Section 6).
 *
 * The paper evaluates CFT vs RFC with the INSEE environment; this module
 * is our from-scratch equivalent, reproducing the Table 2 configuration:
 *
 *   - virtual cut-through flow control with credit accounting,
 *   - 4 virtual channels, 4-packet input buffers per VC,
 *   - 16-phit packets, 1-cycle links, random arbitration (1 iteration),
 *   - "shortest" injection (the VC with most credits wins),
 *   - "up/down random" request mode (a uniformly random minimal up/down
 *     next hop, re-drawn every arbitration cycle).
 *
 * Packets (not phits) are the simulated unit: a packet holds a link and
 * a crossbar input for pkt_phits cycles and occupies a whole-packet
 * buffer slot from the moment its header is forwarded until its tail
 * drains - which is exactly virtual cut-through at 1/16 the event
 * count of a phit-level simulator.
 *
 * Injection is open-loop Bernoulli at a configurable offered load
 * (phits/node/cycle) with a finite source queue providing end-host
 * backpressure; the reported metrics are accepted load and average
 * packet latency (generation to tail ejection) over a measurement
 * window that follows a warm-up phase.
 *
 * All flow-control mechanics live in the shared core engine
 * (sim/core/engine.hpp); this class builds the port-level FabricLayout
 * and plugs in one routing policy per network family.  A folded Clos
 * runs up/down routing (sim/core/policy_updown.hpp), with
 * SimConfig::route_mode selecting minimal, any-feasible, Valiant or
 * UGAL routes.  A direct (Jellyfish-style) network runs the machinery
 * the paper says it needs: a path drawn from k-shortest-path tables at
 * injection (sim/core/policy_ksp.hpp, per packet or per flowlet) and
 * hop-escalating virtual channels for deadlock freedom, under the same
 * flow control, so CFT/RFC/RRN results are directly comparable.
 */
#ifndef RFC_SIM_SIMULATOR_HPP
#define RFC_SIM_SIMULATOR_HPP

#include <memory>

#include "check/guard.hpp"
#include "clos/faults.hpp"
#include "clos/folded_clos.hpp"
#include "clos/topology_events.hpp"
#include "graph/graph.hpp"
#include "routing/ksp_tables.hpp"
#include "routing/updown.hpp"
#include "sim/core/config.hpp"
#include "sim/core/engine.hpp"
#include "sim/core/layout.hpp"
#include "sim/core/policy_ksp.hpp"
#include "sim/core/policy_updown.hpp"
#include "sim/traffic.hpp"

namespace rfc {

/** One network simulation instance. */
class Simulator
{
  public:
    /**
     * Bind a simulator to a topology, its routing oracle and a traffic
     * pattern.  All three must outlive the simulator.
     */
    Simulator(const FoldedClos &fc, const UpDownOracle &oracle,
              Traffic &traffic, SimConfig config);

    /**
     * Live topology-change run: @p timeline fails and repairs links,
     * rewires them (detach/attach against staged links of the bound
     * *union* topology), commissions switches and raises the
     * active-terminal barrier while packets fly.  The simulator owns a
     * private link-state overlay plus a mutable oracle copy bound to
     * it.  Staged links (every kAttach target) start dead in the
     * overlay; a gated run additionally sets config.active_terminals to
     * the pre-expansion terminal count.  Events apply at cycle barriers
     * in timeline order, the oracle repairs itself incrementally
     * (UpDownOracle::applyTopologyEvent; when config.fault_crosscheck
     * is set, each repair is proved equal to a fresh rebuild and a
     * mismatch throws std::logic_error), and SimResult::expansion
     * reports the applied-change counters.  @p fc, @p traffic must
     * outlive the simulator; the timeline is copied.
     */
    Simulator(const FoldedClos &fc, Traffic &traffic, SimConfig config,
              const TopologyTimeline &timeline);

    /**
     * Direct-network run: bind a switch graph, its k-shortest-path
     * tables and a traffic pattern; all must outlive the simulator.
     * There is no timeline variant: live repair needs an incrementally
     * repairable oracle, which KspRoutes is not.
     *
     * @param hosts_per_switch Terminals attached to every switch.
     * @param policy Path selection at injection: per-packet ECMP /
     *        all-k / flowlet-switching ECMP (with
     *        SimConfig::flowlet_gap).
     * @throws std::invalid_argument if hosts_per_switch < 1, or if
     *         config.vcs < routes.maxHops() (hop-escalating VCs could
     *         not guarantee deadlock freedom).
     */
    Simulator(const Graph &g, const KspRoutes &routes, int hosts_per_switch,
              Traffic &traffic, SimConfig config,
              PathPolicy policy = PathPolicy::kShortestEcmp);

    /** Run warm-up plus measurement and return the metrics. */
    SimResult
    run()
    {
        SimResult r = engine_->run();
        if (runtime_)
            r.expansion = runtime_->counters;
        return r;
    }

    /**
     * Attach a closed-loop workload (src/workload): the engine stops
     * generating open-loop traffic and the workload drives injection
     * through its callbacks; SimResult::workload carries the metrics.
     * @p wl must outlive the simulator.  Call before run().
     */
    void attachWorkload(Workload &wl) { engine_->setWorkload(&wl); }

    /**
     * Runtime invariant guard results (populated only when the library
     * is built with -DRFC_CHECK_INVARIANTS=ON; otherwise the guards
     * compile out and this context stays empty).
     */
    const CheckContext &
    checkContext() const
    {
        return engine_->checkContext();
    }

    /**
     * The simulator-owned oracle of a topology-timeline run (null
     * otherwise): after run() it reflects the end-of-timeline link
     * state, which tests compare against a fresh rebuild.
     */
    const UpDownOracle *faultOracle() const;

  private:
    struct EngineBase;

    /** Owned runtime state of a topology-timeline run. */
    struct TopologyRuntime
    {
        const FoldedClos *fc;
        TopologyTimeline timeline;
        LinkFaultState overlay;
        UpDownOracle oracle;   //!< mutable copy, bound to the overlay
        std::size_t next = 0;  //!< first unapplied timeline event
        bool crosscheck = false;
        EngineBase *engine = nullptr;  //!< set once the engine exists
        ExpansionCounters counters;

        /** Masks every staged (kAttach) link dead, then builds the
         *  oracle; throws std::invalid_argument when a staged link is
         *  absent from @p topo. */
        TopologyRuntime(const FoldedClos &topo, TopologyTimeline tl,
                        bool check);
        /** Apply every event scheduled for cycle @p now (runs in
         *  cycle-hook context: all workers parked). */
        void apply(long long now);
    };

    /**
     * Policy-erased engine handle.  The virtual hop is once per call
     * to run()/setWorkload()/setCycleHook() - never per cycle; inside,
     * VctEngine<Policy> is the same fully inlined compile-time
     * instantiation as before.
     */
    struct EngineBase
    {
        virtual ~EngineBase() = default;
        virtual SimResult run() = 0;
        virtual void setWorkload(Workload *wl) = 0;
        virtual void setCycleHook(std::vector<long long> cycles,
                                  std::function<void(long long)> hook) = 0;
        virtual void activateTerminals(long long upto, long long now) = 0;
        virtual long long activeTerminals() const = 0;
        virtual long long inFlightNow() const = 0;
        virtual const CheckContext &checkContext() const = 0;
    };

    template <class Policy>
    struct EngineHolder final : EngineBase
    {
        VctEngine<Policy> e;

        EngineHolder(const FabricLayout &lay, Traffic &tr, SimConfig cfg,
                     Policy p)
            : e(lay, tr, std::move(cfg), std::move(p))
        {
        }

        SimResult run() override { return e.run(); }
        void setWorkload(Workload *wl) override { e.setWorkload(wl); }
        void
        setCycleHook(std::vector<long long> cycles,
                     std::function<void(long long)> hook) override
        {
            e.setCycleHook(std::move(cycles), std::move(hook));
        }
        void
        activateTerminals(long long upto, long long now) override
        {
            e.activateTerminals(upto, now);
        }
        long long
        activeTerminals() const override
        {
            return e.activeTerminals();
        }
        long long inFlightNow() const override { return e.inFlightNow(); }
        const CheckContext &
        checkContext() const override
        {
            return e.checkContext();
        }
    };

    FabricLayout layout_;  //!< must outlive engine_
    std::unique_ptr<TopologyRuntime> runtime_;  //!< must outlive engine_
    std::unique_ptr<EngineBase> engine_;
};

} // namespace rfc

#endif // RFC_SIM_SIMULATOR_HPP
