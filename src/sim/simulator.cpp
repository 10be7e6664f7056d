#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace rfc {

namespace {

/** Rejects a direct network without terminals before any layout exists. */
int
checkedHosts(int hosts_per_switch)
{
    if (hosts_per_switch < 1)
        throw std::invalid_argument(
            "Simulator: hosts_per_switch must be >= 1");
    return hosts_per_switch;
}

} // namespace

Simulator::Simulator(const FoldedClos &fc, const UpDownOracle &oracle,
                     Traffic &traffic, SimConfig config)
    : layout_(FabricLayout::fromFoldedClos(fc))
{
    config.validate();
    engine_ = std::make_unique<EngineHolder<UpDownPolicy>>(
        layout_, traffic, config, UpDownPolicy(fc, oracle, layout_, config));
}

Simulator::Simulator(const Graph &g, const KspRoutes &routes,
                     int hosts_per_switch, Traffic &traffic,
                     SimConfig config, PathPolicy policy)
    : layout_(FabricLayout::fromGraph(g, checkedHosts(hosts_per_switch)))
{
    config.validate();
    if (config.vcs < routes.maxHops())
        throw std::invalid_argument(
            "Simulator: hop-escalating deadlock freedom needs "
            "vcs >= max path hops (" +
            std::to_string(routes.maxHops()) + ")");
    engine_ = std::make_unique<EngineHolder<KspPolicy>>(
        layout_, traffic, config,
        KspPolicy(g, routes, layout_, config, hosts_per_switch, policy));
}

Simulator::TopologyRuntime::TopologyRuntime(const FoldedClos &topo,
                                            TopologyTimeline tl,
                                            bool check)
    : fc(&topo), timeline(std::move(tl)), overlay(topo),
      crosscheck(check)
{
    // Staged links exist in the (union) topology but must be invisible
    // until their attach event fires: mask them dead before the oracle
    // ever sees the fabric.  setLink() returning false means the link
    // is absent (or listed twice) - a timeline/topology mismatch.
    for (const ClosLink &l : timeline.initialDead())
        if (!overlay.setLink(l.lower, l.upper, true))
            throw std::invalid_argument(
                "TopologyRuntime: staged link " +
                std::to_string(l.lower) + "-" + std::to_string(l.upper) +
                " is absent from the bound topology (the timeline must "
                "target the union topology)");
    oracle.build(topo, &overlay);
    counters.active = !timeline.empty();
}

void
Simulator::TopologyRuntime::apply(long long now)
{
    const auto &events = timeline.events();
    bool touched = false;
    // The traffic a barrier must be transparent to: packets in flight
    // right when the change applies.
    counters.barrier_inflight_max = std::max(
        counters.barrier_inflight_max,
        engine != nullptr ? engine->inFlightNow() : 0);
    while (next < events.size() && events[next].cycle <= now) {
        const TopologyEvent &e = events[next++];
        switch (e.op) {
        case TopoOp::kFail:
        case TopoOp::kDetach:
            // setLink() is false when the event is redundant (failing
            // an already-dead link); the tables cannot have changed
            // then.
            if (overlay.setLink(e.lower, e.upper, true)) {
                oracle.applyTopologyEvent(*fc, e);
                touched = true;
                (e.op == TopoOp::kDetach ? counters.links_detached
                                         : counters.links_failed) += 1;
            }
            break;
        case TopoOp::kRepair:
        case TopoOp::kAttach:
            if (overlay.setLink(e.lower, e.upper, false)) {
                oracle.applyTopologyEvent(*fc, e);
                touched = true;
                (e.op == TopoOp::kAttach ? counters.links_attached
                                         : counters.links_repaired) += 1;
            }
            break;
        case TopoOp::kAddSwitch:
            ++counters.switches_added;
            break;
        case TopoOp::kActivateTerminals: {
            const long long before = engine->activeTerminals();
            engine->activateTerminals(e.count, now);
            counters.terminals_activated +=
                engine->activeTerminals() - before;
            break;
        }
        }
    }
    if (crosscheck && touched) {
        UpDownOracle fresh;
        fresh.build(*fc, &overlay);
        if (!oracle.sameTables(fresh))
            throw std::logic_error(
                "TopologyRuntime: incremental oracle repair diverged "
                "from a fresh rebuild at cycle " + std::to_string(now));
    }
}

Simulator::Simulator(const FoldedClos &fc, Traffic &traffic,
                     SimConfig config, const TopologyTimeline &timeline)
    : layout_(FabricLayout::fromFoldedClos(fc))
{
    config.validate();
    runtime_ = std::make_unique<TopologyRuntime>(fc, timeline,
                                                 config.fault_crosscheck);
    engine_ = std::make_unique<EngineHolder<UpDownPolicy>>(
        layout_, traffic, config,
        UpDownPolicy(fc, runtime_->oracle, layout_, config));
    runtime_->engine = engine_.get();
    std::vector<long long> cycles;
    cycles.reserve(runtime_->timeline.size());
    for (const TopologyEvent &e : runtime_->timeline.events())
        cycles.push_back(e.cycle);
    TopologyRuntime *tr = runtime_.get();
    engine_->setCycleHook(std::move(cycles),
                          [tr](long long now) { tr->apply(now); });
}

const UpDownOracle *
Simulator::faultOracle() const
{
    return runtime_ ? &runtime_->oracle : nullptr;
}

} // namespace rfc
