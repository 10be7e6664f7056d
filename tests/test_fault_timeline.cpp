/**
 * @file
 * Tests for the runtime fault layer (tier 1): FaultTimeline /
 * LinkFaultState semantics, incremental up/down oracle repair vs fresh
 * rebuilds on randomized fail/repair sequences, determinism of
 * fault-injection simulations at any thread count, packet conservation
 * and TTL-drop accounting under faults, and the recovery-telemetry
 * analysis helpers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/fault_sweep.hpp"
#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/rfc.hpp"
#include "routing/updown.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace rfc {
namespace {

// ======================================================================
// FaultTimeline / LinkFaultState semantics
// ======================================================================

TEST(FaultTimeline, AddKeepsEventsSortedWithStableTies)
{
    FaultTimeline tl;
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
    EXPECT_EQ(tl.firstFailCycle(), 10);
    EXPECT_EQ(tl.lastEventCycle(), 50);
    EXPECT_THROW(tl.add(-1, 0, 1, true), std::invalid_argument);
}

TEST(FaultTimeline, FirstFailSkipsRepairs)
{
    FaultTimeline tl;
    EXPECT_EQ(tl.firstFailCycle(), -1);
    EXPECT_EQ(tl.lastEventCycle(), -1);
    tl.repair(5, 0, 1);
    EXPECT_EQ(tl.firstFailCycle(), -1);
    tl.fail(9, 0, 1);
    EXPECT_EQ(tl.firstFailCycle(), 9);
}

TEST(FaultTimeline, RandomFailRepairIsSeedDeterministic)
{
    auto fc = buildCft(8, 2);
    auto a = FaultTimeline::randomFailRepair(fc, 6, 100, 300, 42);
    auto b = FaultTimeline::randomFailRepair(fc, 6, 100, 300, 42);
    ASSERT_EQ(a.size(), 12u);  // 6 failures + 6 repairs
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].cycle, b.events()[i].cycle);
        EXPECT_EQ(a.events()[i].lower, b.events()[i].lower);
        EXPECT_EQ(a.events()[i].upper, b.events()[i].upper);
        EXPECT_EQ(a.events()[i].fail, b.events()[i].fail);
    }
    EXPECT_EQ(a.firstFailCycle(), 100);
    EXPECT_EQ(a.lastEventCycle(), 300);

    auto none = FaultTimeline::randomFailRepair(fc, 6, 100, -1, 42);
    EXPECT_EQ(none.size(), 6u);  // no repairs scheduled
    EXPECT_THROW(FaultTimeline::randomFailRepair(fc, 6, 100, 100, 42),
                 std::invalid_argument);
    EXPECT_THROW(FaultTimeline::randomFailRepair(fc, 1u << 20, 0, -1, 42),
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
// Incremental oracle repair == fresh rebuild
// ======================================================================

/** Applies a random fail/repair walk, checking after every event. */
void
randomRepairTrial(const FoldedClos &fc, std::uint64_t seed, int n_events)
{
    Rng rng(seed);
    auto links = fc.links();
    ASSERT_FALSE(links.empty());

    LinkFaultState overlay(fc);
    UpDownOracle incremental;
    incremental.build(fc, &overlay);

    for (int e = 0; e < n_events; ++e) {
        const auto &l = links[rng.uniform(links.size())];
        // Biased toward failures so the dead set actually grows, but
        // with plenty of repairs (including repair-after-repair and
        // redundant events that must be no-ops).
        bool dead = rng.uniform(3) != 0;
        if (!overlay.setLink(l.lower, l.upper, dead))
            continue;  // redundant event: tables must not need repair
        incremental.applyLinkEvent(fc, l.lower, l.upper);

        UpDownOracle fresh;
        fresh.build(fc, &overlay);
        ASSERT_TRUE(incremental.sameTables(fresh))
            << "divergence after event " << e << " (link " << l.lower
            << "-" << l.upper << (dead ? " fail" : " repair")
            << ", seed " << seed << ")";
    }
}

TEST(IncrementalRepair, MatchesFreshBuildOnRandomizedSequences)
{
    // >= 100 randomized trials across CFT and RFC shapes.  Every trial
    // interleaves failures and repairs and cross-checks after every
    // event, so repair-after-repair chains are covered throughout.
    auto cft2 = buildCft(8, 2);
    auto cft3 = buildCft(4, 3);
    Rng build_rng(7);
    auto rfc3 = buildRfc(6, 3, 12, build_rng).topology;

    const FoldedClos *topos[] = {&cft2, &cft3, &rfc3};
    int trial = 0;
    for (int t = 0; t < 34; ++t)
        for (const FoldedClos *fc : topos)
            randomRepairTrial(*fc, deriveSeed(99, 0,
                                              static_cast<std::uint64_t>(
                                                  trial++)),
                              12);
    EXPECT_GE(trial, 100);
}

TEST(IncrementalRepair, FullKillAndFullRepairRestoresOriginalTables)
{
    auto fc = buildCft(4, 3);
    auto links = fc.links();
    LinkFaultState overlay(fc);
    UpDownOracle oracle;
    oracle.build(fc, &overlay);

    for (const auto &l : links) {
        ASSERT_TRUE(overlay.setLink(l.lower, l.upper, true));
        oracle.applyLinkEvent(fc, l.lower, l.upper);
    }
    EXPECT_EQ(overlay.deadLinks(), links.size());
    EXPECT_FALSE(oracle.routable());

    for (const auto &l : links) {
        ASSERT_TRUE(overlay.setLink(l.lower, l.upper, false));
        oracle.applyLinkEvent(fc, l.lower, l.upper);
    }
    EXPECT_EQ(overlay.deadLinks(), 0u);
    UpDownOracle pristine(fc);
    EXPECT_TRUE(oracle.sameTables(pristine));
    EXPECT_TRUE(oracle.routable());
}

TEST(IncrementalRepair, DeadLinksAreNeverOfferedAsNextHops)
{
    auto fc = buildCft(8, 2);
    LinkFaultState overlay(fc);
    UpDownOracle oracle;
    oracle.build(fc, &overlay);

    // Kill every up link of leaf 0 except local index 0.
    const auto &up = fc.up(0);
    ASSERT_GE(up.size(), 2u);
    for (std::size_t i = 1; i < up.size(); ++i) {
        ASSERT_TRUE(overlay.setLink(0, up[i], true));
        oracle.applyLinkEvent(fc, 0, up[i]);
    }
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
runFaultSim(const FoldedClos &fc, const FaultTimeline &tl, SimConfig cfg)
{
    UniformTraffic traffic;
    Simulator sim(fc, traffic, cfg, tl);
    return sim.run();
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
    FaultTimeline tl;
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

    // fail then repair on one cycle nets to a live link, and the whole
    // barrier is invisible to traffic: bit-identical to no timeline.
    FaultTimeline fail_first;
    fail_first.fail(300, l.lower, l.upper).repair(300, l.lower, l.upper);
    auto r = runFaultSim(fc, fail_first, cfg);
    UpDownOracle pristine(fc);
    UniformTraffic traffic;
    Simulator plain(fc, pristine, traffic, cfg);
    expectSameResult(r, plain.run());

    // The reverse insertion order means repair-of-a-live-link (no-op)
    // then fail: the link ends the run dead.
    FaultTimeline repair_first;
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

TEST(FaultSim, BitIdenticalAcrossSimJobsWithTimeline)
{
    auto fc = buildCft(8, 2);
    auto tl = FaultTimeline::randomFailRepair(fc, 8, 300, 700,
                                              deriveSeed(5, 1, 0));
    SimConfig cfg = faultConfig();
    cfg.shards = 4;

    cfg.jobs = 1;
    auto r1 = runFaultSim(fc, tl, cfg);
    cfg.jobs = 4;
    auto r4 = runFaultSim(fc, tl, cfg);
    expectSameResult(r1, r4);
    // And reproducible run to run.
    auto r1b = runFaultSim(fc, tl, cfg);
    expectSameResult(r1, r1b);
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
    auto tl = FaultTimeline::randomFailRepair(
        fc, static_cast<std::size_t>(fc.numWires() / 3), 300, 700,
        deriveSeed(5, 3, 0));
    for (int shards : {1, 4}) {
        SimConfig cfg = faultConfig();
        cfg.shards = shards;
        cfg.jobs = shards;
        SCOPED_TRACE(shards);
        expectConservation(runFaultSim(fc, tl, cfg));
    }
}

TEST(FaultSim, TtlDropsPermanentlyUnroutablePackets)
{
    auto fc = buildCft(8, 2);
    // Kill half the wires for good: some flows lose every route, and
    // with a finite TTL their parked packets must drain as drops
    // instead of wedging their VCs forever.
    auto tl = FaultTimeline::randomFailRepair(
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
    auto tl = FaultTimeline::randomFailRepair(fc, 10, 300, 500,
                                              deriveSeed(5, 5, 0));
    SimConfig cfg = faultConfig();
    cfg.route_ttl = 0;  // historical behavior: wait for the repair
    auto r = runFaultSim(fc, tl, cfg);
    EXPECT_EQ(r.dropped_packets, 0);
    expectConservation(r);
}

TEST(FaultSim, CrosscheckedRepairMatchesFreshOracle)
{
    auto fc = buildCft(8, 2);
    auto tl = FaultTimeline::randomFailRepair(fc, 12, 100, 400,
                                              deriveSeed(5, 6, 0));
    SimConfig cfg = faultConfig();
    cfg.warmup = 100;
    cfg.measure = 500;
    cfg.fault_crosscheck = true;  // throws std::logic_error on mismatch

    UniformTraffic traffic;
    Simulator sim(fc, traffic, cfg, tl);
    EXPECT_NO_THROW(sim.run());

    // Fully repaired at the end: the simulator's oracle must equal a
    // pristine build.
    ASSERT_NE(sim.faultOracle(), nullptr);
    UpDownOracle pristine(fc);
    EXPECT_TRUE(sim.faultOracle()->sameTables(pristine));
}

TEST(FaultSim, TelemetryBinsSumToEjections)
{
    auto fc = buildCft(8, 2);
    auto tl = FaultTimeline::randomFailRepair(fc, 8, 300, 700,
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
    auto lv = nestedFaultLevels(fc, 4, 5, rng, /*build_oracles=*/true);
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
    auto bare = nestedFaultLevels(fc, 4, 5, rng2, /*build_oracles=*/false);
    EXPECT_TRUE(bare.oracles.empty());
    EXPECT_THROW(nestedFaultLevels(fc, 1u << 20, 5, rng2, false),
                 std::out_of_range);
    EXPECT_THROW(nestedFaultLevels(fc, 0, 5, rng2, false),
                 std::invalid_argument);
}

} // namespace
} // namespace rfc
