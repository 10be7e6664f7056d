/**
 * @file
 * Shared configuration and result types of the cycle-driven VCT core.
 *
 * Both simulators (`Simulator` for folded Clos, `DirectSimulator` for
 * Jellyfish-style direct networks) are instantiations of one flow
 * control engine (sim/core/engine.hpp) and share this configuration:
 * Table 2 parameters, the warm-up/measurement window, and the
 * deterministic execution controls.
 *
 * Execution: switches are partitioned into `shards` contiguous shards,
 * each advanced with its own seed-split RNG under a per-cycle barrier.
 * Results depend on the shard count but NOT on `jobs`: any thread
 * count yields bit-identical output, because every draw comes from a
 * per-shard stream and all cross-shard effects are exchanged at
 * deterministic barrier points.
 */
#ifndef RFC_SIM_CORE_CONFIG_HPP
#define RFC_SIM_CORE_CONFIG_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace rfc {

/** Up-phase port selection discipline (folded Clos networks). */
enum class RouteMode
{
    /**
     * A uniformly random up port among *all* parents from which the
     * destination stays reachable - not necessarily minimal.  Spreads
     * concentrated (adversarial) flows over the full ECMP fan-out at
     * the cost of longer average paths (trades ~2% uniform throughput
     * for ~10x better worst-case point-to-point bandwidth).
     */
    kUpDownRandom,
    /**
     * Strictly minimal up/down: only parents on a shortest route.
     * Default - it reproduces the paper's Figure 8-10 ratios (e.g.
     * random-pairing RFC ~ 88% of CFT).
     */
    kMinimal,
    /**
     * Valiant randomized routing: minimal up/down to a uniformly
     * random intermediate leaf, then minimal up/down to the
     * destination.  The dragonfly-style baseline the paper contrasts
     * RFCs with: it caps adversarial degradation at ~50% of peak but
     * pays double traversal on friendly traffic.  Deadlock freedom
     * comes from phase-partitioned virtual channels (phase 0 uses the
     * lower half, phase 1 the upper half), so it requires vcs >= 2.
     */
    kValiant,
};

/** Simulation parameters (defaults = Table 2 of the paper). */
struct SimConfig
{
    int vcs = 4;              //!< virtual channels per port
    int buf_packets = 4;      //!< buffer depth per VC, in packets
    int pkt_phits = 16;       //!< packet length in phits
    int link_latency = 1;     //!< cycles for a header to cross a link
    long long warmup = 3000;  //!< warm-up cycles (not measured)
    long long measure = 10000; //!< measured cycles
    double load = 0.5;        //!< offered load, phits/node/cycle
    std::uint64_t seed = 1;   //!< RNG seed (experiments are reproducible)
    int source_queue = 16;    //!< per-terminal source queue, packets
    RouteMode route_mode = RouteMode::kMinimal;

    /**
     * Switch shards (>= 1), each with its own seed-split RNG stream.
     * The shard count is part of the experiment definition: different
     * values give different (equally valid) random streams.
     */
    int shards = 1;

    /**
     * Worker threads advancing the shards (clamped to the shard
     * count; <= 0 selects hardware concurrency).  Pure execution
     * detail: results are bit-identical at any value.
     */
    int jobs = 1;

    /**
     * Graceful-degradation TTL for packets that lost their route to a
     * runtime fault: an unroutable head-of-queue packet older than
     * this many cycles (age = now - generation cycle, so the TTL also
     * bounds the per-packet re-route retry budget) is dropped and
     * counted in dropped_packets.  0 keeps the historical park-forever
     * behavior (packets wait for a repair indefinitely), which is what
     * the golden baselines were recorded with.
     */
    int route_ttl = 0;

    /**
     * Recovery-telemetry bin width in cycles: > 0 records delivered
     * packets per bin over the whole run (warmup included) into
     * SimResult::delivered_bins, the throughput dip/recovery curve of
     * a fault drill.  0 disables the series.
     */
    long long telemetry_bin = 0;

    /**
     * UGAL bias of AdaptiveUpDownPolicy, in queue-slot x hop units:
     * a packet routes minimally unless
     *   backlog_min * hops_min > backlog_nonmin * hops_nonmin + ugal_threshold,
     * so larger values bias toward minimal routing (0 = pure product
     * comparison).  Must be finite and >= 0.
     */
    double ugal_threshold = 1.0;

    /**
     * Flowlet idle gap of the kFlowletEcmp path policy, in cycles: a
     * (terminal, destination) flow keeps its path while consecutive
     * injections are spaced less than this; after a longer idle gap
     * the path is re-drawn.  0 degenerates to per-packet ECMP.  Must
     * be >= 0.
     */
    long long flowlet_gap = 64;

    /**
     * Cross-check mode for incremental oracle repair: after every
     * fault-timeline event the repaired tables are compared against a
     * freshly built oracle and a mismatch throws.  Expensive -
     * meant for tests, not sweeps.
     */
    bool fault_crosscheck = false;

    /**
     * Activation barrier for live expansion: number of terminals (a
     * contiguous prefix [0, n)) that inject traffic from cycle 0.  -1
     * (default) activates every terminal, which is exactly the
     * historical behavior - golden baselines are unaffected.  A
     * TopologyTimeline kActivateTerminals event raises the count at a
     * cycle barrier; inactive terminals generate nothing, hold no
     * source-queue packets, and are excluded from destination draws of
     * prefix-aware traffic patterns.  Never exceeds the terminal
     * count; gating requires >= 1 active terminal and is incompatible
     * with a closed-loop workload.
     */
    long long active_terminals = -1;

    /**
     * Throw std::invalid_argument on any parameter a simulation cannot
     * run with: vcs or buf_packets or pkt_phits < 1, link_latency < 1
     * (cross-shard arrivals are exchanged at end-of-cycle barriers, so
     * a zero latency link cannot be modeled), empty measurement window
     * (measure < 1, which is also what a "warmup >= total cycles"
     * misconfiguration reduces to), negative warmup, load outside
     * (0, 1], source_queue < 1, a shard count outside [1, 256], a
     * ugal_threshold that is negative or not finite (NaN/inf), a
     * negative flowlet_gap, or an active_terminals value other than -1
     * or >= 1.
     */
    void validate() const;
};

/**
 * Cheap always-on performance counters of the core engine.  All
 * fields except the wall-clock telemetry are deterministic: they
 * depend only on (config, seed, topology), not on thread count or
 * machine speed, and are merged across shards in shard order.
 */
struct PerfCounters
{
    long long cycles = 0;         //!< simulated cycles (warmup + measure)
    long long switch_scans = 0;   //!< input-VC visits by the arbiter
    long long arb_conflicts = 0;  //!< losing candidates in random arbitration
    long long credit_stalls = 0;  //!< forward attempts blocked on credits
    long long forwards = 0;       //!< committed packet moves (incl. ejection)
    /**
     * VC input-buffer occupancy histogram: occupancy[k] counts VC
     * buffers observed holding exactly k packets, sampled every 256
     * cycles over every input VC (k ranges over [0, buf_packets]).
     */
    std::vector<long long> occupancy;

    double wall_seconds = 0.0;    //!< telemetry: run() wall clock
    double cycles_per_sec = 0.0;  //!< telemetry: cycles / wall_seconds

    /** Accumulate another counter set (deterministic fields only). */
    void merge(const PerfCounters &o);
};

/**
 * Closed-loop workload results, filled only when a Workload was
 * attached to the run (active == true).  Window-gated metrics use the
 * measurement window; accounting fields cover the whole run.  All
 * fields are deterministic under the engine's sharding contract.
 */
struct WorkloadMetrics
{
    bool active = false;
    std::string name;            //!< workload strategy name

    long long messages_sent = 0;   //!< messages fully queued
    long long requests_sent = 0;
    long long responses_sent = 0;
    long long flows_completed = 0;    //!< messages received in window
    long long rpcs_completed = 0;     //!< RPCs / incast waves in window
    long long coflow_phases = 0;      //!< coflow phases (whole run)

    /** Workload phits ejected in window / (measure * terminals). */
    double goodput = 0.0;

    double fct_mean = 0.0;  //!< flow completion time stats (window)
    double fct_p50 = 0.0;
    double fct_p99 = 0.0;
    double fct_max = 0.0;

    double rpc_mean = 0.0;  //!< RPC / incast-wave latency stats (window)
    double rpc_p50 = 0.0;
    double rpc_p99 = 0.0;
    double rpc_p999 = 0.0;
    double rpc_max = 0.0;

    double cct_mean = 0.0;  //!< coflow completion time stats (window)
    double cct_max = 0.0;
    std::vector<double> ccts;  //!< per-phase CCTs in window

    // ---- conservation accounting (whole run) -------------------------
    long long msgs_created = 0;
    long long msgs_delivered = 0;
    long long pkts_created = 0;
    long long pkts_pending = 0;   //!< buffered in the workload at end
    long long pkts_received = 0;
    /**
     * pkts_created - (pkts_pending + source-queued + in-flight +
     * pkts_received); 0 on every conserving run.
     */
    long long conservation_residual = 0;
    /** ejected_packets - pkts_received; 0 when every ejection is seen. */
    long long eject_mismatch = 0;
};

/**
 * Accounting of live topology changes (faults and expansion events)
 * applied during a run.  All fields are deterministic - events fire at
 * cycle barriers in timeline order - and active == false (all zeros)
 * unless a TopologyTimeline drove the run.
 */
struct ExpansionCounters
{
    bool active = false;
    long long links_failed = 0;     //!< kFail events applied
    long long links_repaired = 0;   //!< kRepair events applied
    long long links_detached = 0;   //!< rewire halves: links removed
    long long links_attached = 0;   //!< rewire halves: staged links live
    long long switches_added = 0;   //!< commissioning markers
    long long terminals_activated = 0;  //!< terminals past the barrier
    /**
     * Largest number of packets that were in flight inside the fabric
     * at any topology-change barrier: the live traffic the change had
     * to be transparent to (feeds the conservation argument - none of
     * these packets may vanish).
     */
    long long barrier_inflight_max = 0;
};

/** Aggregated measurement results. */
struct SimResult
{
    double offered = 0.0;      //!< configured offered load
    double accepted = 0.0;     //!< delivered phits/node/cycle in window
    double avg_latency = 0.0;  //!< mean packet latency, cycles
    double p50_latency = 0.0;  //!< median latency (log-bucket estimate)
    double p99_latency = 0.0;  //!< 99th percentile latency (estimate)
    double avg_hops = 0.0;     //!< mean switch-to-switch hops
    long long delivered_packets = 0;
    long long generated_packets = 0;
    long long suppressed_packets = 0;  //!< source queue full
    long long unroutable_packets = 0;  //!< no route at injection (faults)

    // ---- fault-recovery accounting (whole run, not just the window) --
    long long ejected_packets = 0;   //!< all-time ejections
    long long dropped_packets = 0;   //!< TTL drops of unroutable packets
    long long rerouted_packets = 0;  //!< packets that lost a route, then found one
    long long route_retries = 0;     //!< cycles head packets spent route-less
    long long in_flight_packets = 0; //!< packets still in the network at end
    long long queued_packets_end = 0; //!< packets still in source queues at end

    /**
     * Delivered packets per telemetry bin (bin width echoed in
     * telemetry_bin; empty when SimConfig::telemetry_bin == 0).
     * Covers the whole run from cycle 0, so a fault drill's dip and
     * recovery are visible even when they straddle the warmup edge.
     */
    std::vector<long long> delivered_bins;
    long long telemetry_bin = 0;

    PerfCounters perf;         //!< engine counters for this run
    WorkloadMetrics workload;  //!< closed-loop metrics (inactive default)
    ExpansionCounters expansion;  //!< live topology-change accounting
};

} // namespace rfc

#endif // RFC_SIM_CORE_CONFIG_HPP
