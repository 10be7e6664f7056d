/**
 * @file
 * Shared configuration and result types of the cycle-driven VCT core.
 *
 * Every `Simulator` run, folded Clos or Jellyfish-style direct
 * network, instantiates one flow control engine (sim/core/engine.hpp)
 * and shares this configuration: Table 2 parameters, the
 * warm-up/measurement window, the seed, and the routing and fault
 * knobs.  A live run's initial topology state - staged links and the
 * active-terminal gate - is not configuration: it travels with its
 * TopologyTimeline (clos/topology_events.hpp).
 */
#ifndef RFC_SIM_CORE_CONFIG_HPP
#define RFC_SIM_CORE_CONFIG_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace rfc {

/**
 * Route selection of a folded Clos run: which up ports a packet may
 * take, and whether it first detours through an intermediate leaf.
 * UpDownPolicy (sim/core/policy_updown.hpp) implements all four.
 */
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
    /**
     * UGAL-style adaptive routing: each packet draws a Valiant
     * intermediate at injection but keeps it only when the minimal
     * route's first-hop backlog x hops exceeds the detour's by more
     * than UpDownPolicy::kUgalThreshold; otherwise it routes
     * minimally.  Matches minimal routing on friendly traffic and
     * Valiant on adversarial funnels, without choosing in advance.
     * Uses Valiant's phase-partitioned channels, so it also requires
     * vcs >= 2.
     */
    kUgal,
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
    RouteMode route_mode = RouteMode::kMinimal;

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

    /** Slots of the engine's generation and injection wheels. */
    static constexpr int kGenWheelSlots = 1024;

    /** Per-terminal source queue, packets. */
    static constexpr int kSourceQueue = 16;
    static_assert(kSourceQueue <= 32767, "source-queue indices are 16-bit");

    /**
     * Throw std::invalid_argument on any parameter a simulation cannot
     * run with: vcs or buf_packets or pkt_phits < 1, link_latency < 1
     * (an arrival wakes its input VC at now + 1 at the earliest, so a
     * zero latency link cannot be modeled), empty measurement window
     * (measure < 1, which is also what a "warmup >= total cycles"
     * misconfiguration reduces to), negative warmup, load outside
     * (0, 1], or Valiant or UGAL routing with vcs < 2.  Also rejects
     * values the engine's narrow hot-state types would silently wrap:
     * vcs or buf_packets > 127 (8-bit VC indices and injection credits),
     * pkt_phits >= kGenWheelSlots (an injection rescheduled pkt_phits
     * ahead would land in the slot being drained), and warmup + measure + link_latency + pkt_phits >
     * INT32_MAX (packet ready and birth times, busy-until times and
     * timers are 32-bit cycle stamps, and the wake and release wheels
     * have pkt_phits + link_latency + 2 slots).
     */
    void validate() const;
};

/**
 * Cheap always-on performance counters of the core engine.  All
 * fields except the wall-clock telemetry are deterministic: they
 * depend only on (config, seed, topology), not on machine speed.
 */
struct PerfCounters
{
    long long cycles = 0;         //!< simulated cycles (warmup + measure)
    long long switch_scans = 0;   //!< input-VC visits by the arbiter
    long long arb_conflicts = 0;  //!< losing candidates in random arbitration
    long long credit_stalls = 0;  //!< forward attempts blocked on credits
    long long forwards = 0;       //!< committed packet moves (incl. ejection)
    /**
     * What each arbiter visit came to.  Every visit ends in exactly one
     * of these six outcomes, a forward, or a lost arbitration, so
     *   switch_scans = scan_not_ready + scan_no_route + scan_sole_busy
     *                + scan_choice_busy + scan_credit_blocked
     *                + scan_commit_blocked + forwards + arb_conflicts.
     */
    long long scan_not_ready = 0;  //!< head not arrived or in-port held
    long long scan_no_route = 0;   //!< no legal output (= route_retries)
    long long scan_sole_busy = 0;  //!< the only legal output transmitting
    long long scan_choice_busy = 0;     //!< drawn output busy, others legal
    long long scan_credit_blocked = 0;  //!< no output VC credit at scan
    /** Won its output, then found the in-port taken or credit gone. */
    long long scan_commit_blocked = 0;
    /**
     * VC input-buffer occupancy histogram: occupancy[k] counts VC
     * buffers observed holding exactly k packets, sampled every 256
     * cycles over every input VC (k ranges over [0, buf_packets]).
     */
    std::vector<long long> occupancy;

    double wall_seconds = 0.0;    //!< telemetry: run() wall clock
    double cycles_per_sec = 0.0;  //!< telemetry: cycles / wall_seconds
    /**
     * Telemetry: wall clock spent in each phase of the cycle loop,
     * summed over the run.  The occupancy sample, the guards and the
     * set-up before cycle 0 are in no phase, so the six sum to at most
     * wall_seconds.
     */
    double hook_seconds = 0.0;
    double release_seconds = 0.0;
    double generate_seconds = 0.0;  //!< generation or workload wakes
    double inject_seconds = 0.0;
    double arbitrate_seconds = 0.0;
    double global_step_seconds = 0.0;  //!< workload onGlobalStep
};

/**
 * Closed-loop workload results, filled only when a Workload was
 * attached to the run (active == true).  Window-gated metrics use the
 * measurement window; accounting fields cover the whole run.  All
 * fields are deterministic functions of (config, seed, topology).
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
