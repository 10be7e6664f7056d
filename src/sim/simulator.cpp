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

/** TopoOp names, in enumerator order, for error messages. */
constexpr const char *kOpNames[] = {"fail",   "repair",     "detach",
                                    "attach", "add-switch", "activate"};

/**
 * Rejects an event that names a switch outside @p fc or a link @p fc
 * does not hold; the overlay would read outside the topology's arrays
 * for the first and silently ignore the second.
 */
void
checkEvent(const FoldedClos &fc, const TopologyEvent &e)
{
    if (e.op == TopoOp::kActivateTerminals)
        return;
    const bool link = e.op != TopoOp::kAddSwitch;
    auto inRange = [&](int s) { return s >= 0 && s < fc.numSwitches(); };
    const bool ok = link ? inRange(e.lower) && inRange(e.upper) &&
                               fc.countLink(e.lower, e.upper) > 0
                         : inRange(e.lower);
    if (ok)
        return;
    std::string msg = "TopologyRuntime: ";
    msg += kOpNames[static_cast<int>(e.op)];
    msg += " event at cycle " + std::to_string(e.cycle);
    msg += link ? " names link " : " names switch ";
    msg += std::to_string(e.lower);
    if (link)
        msg += '-' + std::to_string(e.upper);
    msg += ", which the bound topology (" + std::to_string(fc.numSwitches()) +
           " switches) does not hold";
    throw std::invalid_argument(msg);
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
                                            TopologyTimeline tl)
    : fc(&topo), timeline(std::move(tl)), overlay(topo)
{
    for (const TopologyEvent &e : timeline.events())
        checkEvent(topo, e);
    if (const auto n = timeline.initialActive();
        n && (*n < 1 || *n > topo.numTerminals()))
        throw std::invalid_argument(
            "TopologyRuntime: starting active-terminal count " +
            std::to_string(*n) + " is outside [1, " +
            std::to_string(topo.numTerminals()) +
            "] (the bound topology's terminals)");
    // Staged links exist in the (union) topology but must be invisible
    // until their attach event fires: mask them dead before the oracle
    // ever sees the fabric.  setLink() returning false means the link
    // is staged more often than the topology holds it - a
    // timeline/topology mismatch.
    for (const ClosLink &l : timeline.initialDead())
        if (!overlay.setLink(l.lower, l.upper, true))
            throw std::invalid_argument(
                "TopologyRuntime: staged link " +
                std::to_string(l.lower) + "-" + std::to_string(l.upper) +
                " is attached more often than the bound topology holds "
                "it (the timeline must target the union topology)");
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
            // an already-dead link); the tables cannot change then.
            if (overlay.setLink(e.lower, e.upper, true)) {
                touched = true;
                (e.op == TopoOp::kDetach ? counters.links_detached
                                         : counters.links_failed) += 1;
            }
            break;
        case TopoOp::kRepair:
        case TopoOp::kAttach:
            if (overlay.setLink(e.lower, e.upper, false)) {
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
    // Nothing routes inside the barrier, so one rebuild after the last
    // flip serves every event of it.
    if (touched)
        oracle.build(*fc, &overlay);
}

Simulator::Simulator(const FoldedClos &fc, Traffic &traffic,
                     SimConfig config, const TopologyTimeline &timeline)
    : layout_(FabricLayout::fromFoldedClos(fc))
{
    config.validate();
    runtime_ = std::make_unique<TopologyRuntime>(fc, timeline);
    auto holder = std::make_unique<EngineHolder<UpDownPolicy>>(
        layout_, traffic, config,
        UpDownPolicy(fc, runtime_->oracle, layout_, config));
    runtime_->engine = &holder->e;
    if (const auto n = runtime_->timeline.initialActive())
        holder->e.gateTerminals(*n);
    std::vector<long long> cycles;
    cycles.reserve(runtime_->timeline.size());
    for (const TopologyEvent &e : runtime_->timeline.events())
        cycles.push_back(e.cycle);
    TopologyRuntime *tr = runtime_.get();
    holder->e.setCycleHook(std::move(cycles),
                           [tr](long long now) { tr->apply(now); });
    engine_ = std::move(holder);
}

const UpDownOracle *
Simulator::faultOracle() const
{
    return runtime_ ? &runtime_->oracle : nullptr;
}

} // namespace rfc
