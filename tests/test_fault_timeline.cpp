/**
 * @file
 * Tests for the runtime fault layer (tier 1): fail/repair
 * TopologyTimeline / LinkFaultState semantics, the up/down oracle built
 * against a link overlay, rejection of timelines that name switches or
 * links the topology lacks, determinism of fault-injection simulations,
 * packet conservation and TTL-drop accounting under faults, and the
 * recovery-telemetry analysis helpers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/fault_sweep.hpp"
#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/rfc.hpp"
#include "clos/topology_events.hpp"
#include "routing/updown.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace rfc {
namespace {

// ======================================================================
// TopologyTimeline fail/repair / LinkFaultState semantics
// ======================================================================

TEST(TopologyTimeline, FailRepairKeepsEventsSortedWithStableTies)
{
    TopologyTimeline tl;
    tl.fail(50, 0, 1).repair(10, 2, 3).fail(50, 4, 5).fail(10, 6, 7);
    ASSERT_EQ(tl.size(), 4u);
    const auto &ev = tl.events();
    EXPECT_EQ(ev[0].cycle, 10);
    EXPECT_EQ(ev[0].lower, 2);  // inserted before the same-cycle fail
    EXPECT_EQ(ev[1].cycle, 10);
    EXPECT_EQ(ev[1].lower, 6);
    EXPECT_EQ(ev[2].cycle, 50);
    EXPECT_EQ(ev[2].lower, 0);  // same-cycle events keep insertion order
    EXPECT_EQ(ev[3].lower, 4);
    EXPECT_EQ(tl.firstDisruptionCycle(), 10);
    EXPECT_EQ(tl.lastEventCycle(), 50);
    EXPECT_THROW(tl.fail(-1, 0, 1), std::invalid_argument);
}

TEST(TopologyTimeline, FirstDisruptionSkipsRepairs)
{
    TopologyTimeline tl;
    EXPECT_EQ(tl.firstDisruptionCycle(), -1);
    EXPECT_EQ(tl.lastEventCycle(), -1);
    tl.repair(5, 0, 1);
    EXPECT_EQ(tl.firstDisruptionCycle(), -1);
    tl.fail(9, 0, 1);
    EXPECT_EQ(tl.firstDisruptionCycle(), 9);
}

TEST(TopologyTimeline, RandomFailRepairIsSeedDeterministic)
{
    auto fc = buildCft(8, 2);
    auto a = TopologyTimeline::randomFailRepair(fc, 6, 100, 300, 42);
    auto b = TopologyTimeline::randomFailRepair(fc, 6, 100, 300, 42);
    ASSERT_EQ(a.size(), 12u);  // 6 failures + 6 repairs
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].cycle, b.events()[i].cycle);
        EXPECT_EQ(a.events()[i].op, b.events()[i].op);
        EXPECT_EQ(a.events()[i].lower, b.events()[i].lower);
        EXPECT_EQ(a.events()[i].upper, b.events()[i].upper);
    }
    // The draw is the first links of randomLinkOrder under the seed,
    // failed in that order and repaired in the same order.
    Rng rng(42);
    const auto order = randomLinkOrder(fc, rng);
    for (std::size_t i = 0; i < 6; ++i) {
        const TopologyEvent &f = a.events()[i];
        const TopologyEvent &r = a.events()[i + 6];
        EXPECT_EQ(f.cycle, 100);
        EXPECT_EQ(f.op, TopoOp::kFail);
        EXPECT_EQ(r.cycle, 300);
        EXPECT_EQ(r.op, TopoOp::kRepair);
        EXPECT_EQ(f.lower, order[i].lower);
        EXPECT_EQ(f.upper, order[i].upper);
        EXPECT_EQ(r.lower, order[i].lower);
        EXPECT_EQ(r.upper, order[i].upper);
    }
    EXPECT_EQ(a.firstDisruptionCycle(), 100);
    EXPECT_EQ(a.lastEventCycle(), 300);
    EXPECT_TRUE(a.initialDead().empty());  // no staged links

    auto none = TopologyTimeline::randomFailRepair(fc, 6, 100, -1, 42);
    EXPECT_EQ(none.size(), 6u);  // no repairs scheduled
    EXPECT_THROW(TopologyTimeline::randomFailRepair(fc, 6, 100, 100, 42),
                 std::invalid_argument);
    EXPECT_THROW(
        TopologyTimeline::randomFailRepair(fc, 1u << 20, 0, -1, 42),
        std::out_of_range);
}

TEST(LinkFaultState, FlipRedundantAndParallelWires)
{
    auto fc = buildCft(8, 2);
    LinkFaultState st(fc);
    auto links = fc.links();
    ASSERT_FALSE(links.empty());
    const auto &l = links.front();

    EXPECT_EQ(st.deadLinks(), 0u);
    EXPECT_TRUE(st.setLink(l.lower, l.upper, true));
    EXPECT_EQ(st.deadLinks(), 1u);
    // Count how many parallel instances of this wire exist; killing it
    // again must step through them one instance at a time, then report
    // no further change.
    std::size_t instances = 0;
    for (int up : fc.up(l.lower))
        if (up == l.upper)
            ++instances;
    for (std::size_t i = 1; i < instances; ++i)
        EXPECT_TRUE(st.setLink(l.lower, l.upper, true));
    EXPECT_FALSE(st.setLink(l.lower, l.upper, true));  // all dead already
    EXPECT_EQ(st.deadLinks(), instances);

    EXPECT_TRUE(st.setLink(l.lower, l.upper, false));
    EXPECT_EQ(st.deadLinks(), instances - 1);
    // Nonexistent link: no change.
    EXPECT_FALSE(st.setLink(l.lower, l.lower, true));
}

// ======================================================================
// Oracle built against a link overlay
// ======================================================================

TEST(OverlayOracle, FullKillAndFullRepairRestoresOriginalTables)
{
    auto fc = buildCft(4, 3);
    auto links = fc.links();
    LinkFaultState overlay(fc);
    UpDownOracle oracle;

    for (const auto &l : links)
        ASSERT_TRUE(overlay.setLink(l.lower, l.upper, true));
    oracle.build(fc, &overlay);
    EXPECT_EQ(overlay.deadLinks(), links.size());
    EXPECT_FALSE(oracle.routable());

    for (const auto &l : links)
        ASSERT_TRUE(overlay.setLink(l.lower, l.upper, false));
    oracle.build(fc, &overlay);
    EXPECT_EQ(overlay.deadLinks(), 0u);
    UpDownOracle pristine(fc);
    EXPECT_TRUE(oracle.sameTables(pristine));
    EXPECT_TRUE(oracle.routable());
}

TEST(OverlayOracle, DeadLinksAreNeverOfferedAsNextHops)
{
    auto fc = buildCft(8, 2);
    LinkFaultState overlay(fc);
    UpDownOracle oracle;

    // Kill every up link of leaf 0 except local index 0.
    const auto &up = fc.up(0);
    ASSERT_GE(up.size(), 2u);
    for (std::size_t i = 1; i < up.size(); ++i)
        ASSERT_TRUE(overlay.setLink(0, up[i], true));
    oracle.build(fc, &overlay);
    std::vector<int> choices;
    // Any destination needing an ascent from leaf 0 must route through
    // the lone surviving parent link.
    for (int dest = 1; dest < oracle.numLeaves(); ++dest) {
        if (oracle.minUps(0, dest) < 1)
            continue;
        oracle.upChoices(fc, 0, dest, choices);
        for (int idx : choices)
            EXPECT_EQ(idx, 0);
        oracle.feasibleUpChoices(fc, 0, dest, choices);
        for (int idx : choices)
            EXPECT_EQ(idx, 0);
    }
}

// ======================================================================
// Fault-injection simulation: determinism, conservation, TTL drops
// ======================================================================

SimResult
runFaultSim(const FoldedClos &fc, const TopologyTimeline &tl,
            SimConfig cfg)
{
    UniformTraffic traffic;
    Simulator sim(fc, traffic, cfg, tl);
    const SimResult r = sim.run();
    // Guard builds: no visit may draw from a next-hop set cached before
    // a fault or repair (route-cache), among the other guards.
    EXPECT_EQ(sim.checkContext().violations(), 0)
        << sim.checkContext().summary();
    return r;
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.delivered_packets, b.delivered_packets);
    EXPECT_EQ(a.generated_packets, b.generated_packets);
    EXPECT_EQ(a.suppressed_packets, b.suppressed_packets);
    EXPECT_EQ(a.unroutable_packets, b.unroutable_packets);
    EXPECT_EQ(a.ejected_packets, b.ejected_packets);
    EXPECT_EQ(a.dropped_packets, b.dropped_packets);
    EXPECT_EQ(a.rerouted_packets, b.rerouted_packets);
    EXPECT_EQ(a.route_retries, b.route_retries);
    EXPECT_EQ(a.in_flight_packets, b.in_flight_packets);
    EXPECT_EQ(a.queued_packets_end, b.queued_packets_end);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.avg_latency, b.avg_latency);
    EXPECT_EQ(a.delivered_bins, b.delivered_bins);
}

SimConfig
faultConfig()
{
    SimConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 800;
    cfg.load = 0.6;
    cfg.seed = 5;
    cfg.route_ttl = 64;
    cfg.telemetry_bin = 50;
    return cfg;
}

TEST(FaultSim, CycleZeroEventsApplyBeforeAnyTraffic)
{
    // A cycle-0 failure is initial state: the run must be bit-identical
    // to one whose oracle was built on a pre-masked overlay (no
    // timeline at all), proving the barrier fires before any packet of
    // cycle 0 is generated or routed.
    auto fc = buildCft(8, 2);
    auto links = fc.links();
    ASSERT_GE(links.size(), 3u);
    TopologyTimeline tl;
    LinkFaultState overlay(fc);
    for (std::size_t i = 0; i < 3; ++i) {
        tl.fail(0, links[i].lower, links[i].upper);
        ASSERT_TRUE(overlay.setLink(links[i].lower, links[i].upper, true));
    }
    SimConfig cfg = faultConfig();
    auto timed = runFaultSim(fc, tl, cfg);

    UpDownOracle premasked;
    premasked.build(fc, &overlay);
    UniformTraffic traffic;
    Simulator sim(fc, premasked, traffic, cfg);
    expectSameResult(timed, sim.run());
}

TEST(FaultSim, SameCycleEventsApplyInInsertionOrder)
{
    auto fc = buildCft(8, 2);
    const auto l = fc.links().front();
    SimConfig cfg = faultConfig();

    // fail then repair on one cycle nets to a live link: bit-identical
    // to a no-op barrier on that cycle (repairing a live link).  Any
    // barrier re-visits sleeping heads, so the reference needs one too.
    TopologyTimeline fail_first;
    fail_first.fail(300, l.lower, l.upper).repair(300, l.lower, l.upper);
    auto r = runFaultSim(fc, fail_first, cfg);
    TopologyTimeline noop;
    noop.repair(300, l.lower, l.upper);
    expectSameResult(r, runFaultSim(fc, noop, cfg));
    UpDownOracle pristine(fc);

    // The reverse insertion order means repair-of-a-live-link (no-op)
    // then fail: the link ends the run dead.
    TopologyTimeline repair_first;
    repair_first.repair(300, l.lower, l.upper).fail(300, l.lower,
                                                    l.upper);
    UniformTraffic traffic2;
    Simulator sim(fc, traffic2, cfg, repair_first);
    sim.run();
    ASSERT_NE(sim.faultOracle(), nullptr);
    EXPECT_FALSE(sim.faultOracle()->sameTables(pristine));
    LinkFaultState overlay(fc);
    ASSERT_TRUE(overlay.setLink(l.lower, l.upper, true));
    UpDownOracle dead;
    dead.build(fc, &overlay);
    EXPECT_TRUE(sim.faultOracle()->sameTables(dead));
}

TEST(FaultSim, ReproducibleWithTimeline)
{
    auto fc = buildCft(8, 2);
    auto tl = TopologyTimeline::randomFailRepair(fc, 8, 300, 700,
                                                 deriveSeed(5, 1, 0));
    const SimConfig cfg = faultConfig();
    expectSameResult(runFaultSim(fc, tl, cfg), runFaultSim(fc, tl, cfg));
}

void
expectConservation(const SimResult &r)
{
    // Every generated packet is accounted for exactly once: still in a
    // source queue, suppressed at a full queue, dropped unroutable at
    // injection, ejected, TTL-dropped in flight, or still in flight.
    EXPECT_EQ(r.generated_packets,
              r.queued_packets_end + r.suppressed_packets +
                  r.unroutable_packets + r.ejected_packets +
                  r.dropped_packets + r.in_flight_packets);
}

TEST(FaultSim, ConservationUnderFaults)
{
    auto fc = buildCft(8, 2);
    // Aggressive drill: a third of the wires die, later all repaired.
    auto tl = TopologyTimeline::randomFailRepair(
        fc, static_cast<std::size_t>(fc.numWires() / 3), 300, 700,
        deriveSeed(5, 3, 0));
    expectConservation(runFaultSim(fc, tl, faultConfig()));
}

TEST(FaultSim, TtlDropsPermanentlyUnroutablePackets)
{
    auto fc = buildCft(8, 2);
    // Kill half the wires for good: some flows lose every route, and
    // with a finite TTL their parked packets must drain as drops
    // instead of wedging their VCs forever.
    auto tl = TopologyTimeline::randomFailRepair(
        fc, static_cast<std::size_t>(fc.numWires() / 2), 250, -1,
        deriveSeed(5, 4, 0));
    SimConfig cfg = faultConfig();
    cfg.measure = 1800;

    auto r = runFaultSim(fc, tl, cfg);
    expectConservation(r);
    EXPECT_GT(r.dropped_packets, 0);
    EXPECT_GT(r.route_retries, 0);
    // A dropped head spent at most route_ttl cycles route-less, so the
    // retry budget bounds retries per drop event.
    EXPECT_LE(r.route_retries,
              (r.dropped_packets + r.rerouted_packets + 1) *
                  static_cast<long long>(cfg.route_ttl));
}

TEST(FaultSim, TtlZeroParksForeverAcrossAnOutage)
{
    auto fc = buildCft(8, 2);
    auto tl = TopologyTimeline::randomFailRepair(fc, 10, 300, 500,
                                                 deriveSeed(5, 5, 0));
    SimConfig cfg = faultConfig();
    cfg.route_ttl = 0;  // historical behavior: wait for the repair
    auto r = runFaultSim(fc, tl, cfg);
    EXPECT_EQ(r.dropped_packets, 0);
    expectConservation(r);
}

TEST(FaultSim, RepairedRunEndsEqualToFreshOracle)
{
    auto fc = buildCft(8, 2);
    auto tl = TopologyTimeline::randomFailRepair(fc, 12, 100, 400,
                                                 deriveSeed(5, 6, 0));
    SimConfig cfg = faultConfig();
    cfg.warmup = 100;
    cfg.measure = 500;

    UniformTraffic traffic;
    Simulator sim(fc, traffic, cfg, tl);
    EXPECT_NO_THROW(sim.run());

    // Fully repaired at the end: the simulator's oracle must equal a
    // pristine build.
    ASSERT_NE(sim.faultOracle(), nullptr);
    UpDownOracle pristine(fc);
    EXPECT_TRUE(sim.faultOracle()->sameTables(pristine));
}

/** The message of the std::invalid_argument @p tl raises on @p fc. */
std::string
rejection(const FoldedClos &fc, const TopologyTimeline &tl)
{
    UniformTraffic traffic;
    try {
        Simulator sim(fc, traffic, faultConfig(), tl);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    ADD_FAILURE() << "timeline was accepted";
    return "";
}

TEST(FaultSim, RejectsEventsNamingAbsentSwitchesOrLinks)
{
    auto fc = buildCft(4, 2);
    // An endpoint past the last switch would read outside the
    // topology's arrays.
    TopologyTimeline far;
    far.fail(50, 1 << 20, 3);
    std::string msg = rejection(fc, far);
    EXPECT_NE(msg.find("fail event at cycle 50"), std::string::npos) << msg;
    EXPECT_NE(msg.find("link 1048576-3"), std::string::npos) << msg;

    // Two leaves share no link: the overlay would ignore the event and
    // the run would end with links_failed 0 and no warning.
    TopologyTimeline leaves;
    leaves.fail(50, 0, 1);
    msg = rejection(fc, leaves);
    EXPECT_NE(msg.find("fail event at cycle 50"), std::string::npos) << msg;
    EXPECT_NE(msg.find("link 0-1"), std::string::npos) << msg;

    TopologyTimeline neg;
    neg.repair(7, -1, fc.numLeaves());
    msg = rejection(fc, neg);
    EXPECT_NE(msg.find("repair event at cycle 7"), std::string::npos)
        << msg;

    TopologyTimeline sw;
    sw.addSwitch(9, fc.numSwitches());
    msg = rejection(fc, sw);
    EXPECT_NE(msg.find("add-switch event at cycle 9"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("switch " + std::to_string(fc.numSwitches())),
              std::string::npos)
        << msg;

    // Every switch id in range and every existing link is accepted.
    TopologyTimeline ok;
    ok.addSwitch(9, fc.numSwitches() - 1);
    const ClosLink l = fc.links().back();
    ok.fail(10, l.lower, l.upper).fail(11, l.lower, l.upper);
    UniformTraffic traffic;
    EXPECT_NO_THROW(Simulator(fc, traffic, faultConfig(), ok));
}

TEST(FaultSim, TelemetryBinsSumToEjections)
{
    auto fc = buildCft(8, 2);
    auto tl = TopologyTimeline::randomFailRepair(fc, 8, 300, 700,
                                                 deriveSeed(5, 7, 0));
    SimConfig cfg = faultConfig();
    auto r = runFaultSim(fc, tl, cfg);

    EXPECT_EQ(r.telemetry_bin, cfg.telemetry_bin);
    ASSERT_FALSE(r.delivered_bins.empty());
    long long total = 0;
    for (long long b : r.delivered_bins)
        total += b;
    EXPECT_EQ(total, r.ejected_packets);
}

TEST(FaultSim, ConfigValidatesFaultFields)
{
    SimConfig cfg;
    cfg.route_ttl = -1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.route_ttl = 0;
    cfg.telemetry_bin = -5;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.telemetry_bin = 0;
    EXPECT_NO_THROW(cfg.validate());
}

// ======================================================================
// Recovery analysis helpers
// ======================================================================

TEST(Recovery, ComputeRecoveryHeadlineNumbers)
{
    // 10 full bins of width 10; failure lands in bin 3, rate dips to
    // 0.2x baseline and recovers from bin 5 on.
    std::vector<long long> bins{10, 10, 10, 2, 5, 10, 10, 10, 10, 10};
    auto r = computeRecovery(bins, 10, 100, 30);
    EXPECT_DOUBLE_EQ(r.baseline, 1.0);
    EXPECT_DOUBLE_EQ(r.dip_fraction, 0.2);
    EXPECT_EQ(r.reconverge_cycle, 50);
    EXPECT_EQ(r.time_to_reconverge, 20);
}

TEST(Recovery, NeverReconvergesAndEdgeCases)
{
    std::vector<long long> degraded{10, 10, 10, 2, 2, 2, 2, 2, 2, 2};
    auto r = computeRecovery(degraded, 10, 100, 30);
    EXPECT_EQ(r.reconverge_cycle, -1);
    EXPECT_EQ(r.time_to_reconverge, -1);
    EXPECT_DOUBLE_EQ(r.dip_fraction, 0.2);

    // No pre-failure bin: no baseline, neutral result.
    auto early = computeRecovery(degraded, 10, 100, 5);
    EXPECT_EQ(early.reconverge_cycle, -1);
    EXPECT_DOUBLE_EQ(early.baseline, 0.0);

    // Undipped series reconverges instantly.
    std::vector<long long> flat{10, 10, 10, 10, 10};
    auto ok = computeRecovery(flat, 10, 50, 20);
    EXPECT_DOUBLE_EQ(ok.dip_fraction, 1.0);
    EXPECT_EQ(ok.time_to_reconverge, 0);

    // A trailing partial bin is excluded, not read as a collapse.
    std::vector<long long> partial{10, 10, 10, 10, 3};
    auto p = computeRecovery(partial, 10, 45, 20);
    EXPECT_DOUBLE_EQ(p.dip_fraction, 1.0);
    EXPECT_EQ(p.time_to_reconverge, 0);

    EXPECT_EQ(computeRecovery({}, 10, 100, 30).reconverge_cycle, -1);
    EXPECT_EQ(computeRecovery(flat, 0, 100, 30).reconverge_cycle, -1);
    EXPECT_EQ(computeRecovery(flat, 10, 100, -1).reconverge_cycle, -1);
}

TEST(Recovery, NestedFaultLevelsShape)
{
    auto fc = buildCft(8, 2);
    Rng rng(3);
    auto lv = nestedFaultLevels(fc, 4, 5, rng);
    ASSERT_EQ(lv.cuts.size(), 4u);
    ASSERT_EQ(lv.oracles.size(), 4u);
    EXPECT_EQ(lv.order.size(), static_cast<std::size_t>(fc.numWires()));
    for (std::size_t b = 0; b < lv.cuts.size(); ++b) {
        EXPECT_EQ(lv.cuts[b].numWires(),
                  fc.numWires() - lv.removedAt(b));
        ASSERT_NE(lv.oracles[b], nullptr);
    }
    // Nested: level b's faults contain level b-1's (prefix property is
    // by construction; spot-check the wire counts are monotone).
    for (std::size_t b = 1; b < lv.cuts.size(); ++b)
        EXPECT_LT(lv.cuts[b].numWires(), lv.cuts[b - 1].numWires());

    Rng rng2(3);
    EXPECT_THROW(nestedFaultLevels(fc, 1u << 20, 5, rng2),
                 std::out_of_range);
    EXPECT_THROW(nestedFaultLevels(fc, 0, 5, rng2),
                 std::invalid_argument);
}

} // namespace
} // namespace rfc
