/**
 * @file
 * The three concrete closed-loop workloads (see DESIGN.md 4.13):
 *
 *  - RPC request/response: every terminal is a client that fans a
 *    request out to `fanout` uniformly random distinct servers, waits
 *    for all responses, then thinks for an exponentially distributed
 *    time before the next RPC.  Servers respond to every fully
 *    received request.  The metric is the RPC latency distribution
 *    (first request queued to last response tail) - p50/p99/p999.
 *
 *  - Incast: terminals are partitioned into groups of one aggregator
 *    plus `fanin` workers (a seeded random pairing, the fixed-random
 *    pattern made bursty).  The aggregator broadcasts a small request
 *    wave; all workers respond at once - the many-to-one burst - and
 *    the wave completes when the last response lands.  Metrics: wave
 *    latency distribution and goodput.
 *
 *  - Coflow: terminals are partitioned into groups of `group` that
 *    run all-to-all phases: each member sends a `flow_packets` flow
 *    to every other member, and the next phase starts only when the
 *    slowest flow of the current one completes (detected at the
 *    engine's end-of-cycle global step).  Metric: coflow completion
 *    time (CCT) per phase.
 *
 * All three keep per-terminal mutable state plus one RNG per terminal
 * derived from the init() seed, so a terminal's draws do not depend on
 * the order other terminals' callbacks run in (the coflow phase
 * counter is only advanced inside the global step).
 *
 * The load knob: closed-loop sources have no offered-load parameter,
 * so makeWorkload maps SimConfig::load onto the workload's pressure
 * axis - RPC/incast divide the mean think time by the load (load 1 =
 * zero-think saturation), coflows scale the per-flow packet count by
 * it.  Monotone pressure in load is what the tier-2 property suite
 * asserts (monotone CCT).
 */
#ifndef RFC_WORKLOAD_CLOSED_LOOP_HPP
#define RFC_WORKLOAD_CLOSED_LOOP_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace rfc {

/**
 * Shared machinery of the concrete workloads: per-terminal pending
 * message buffers (messages the state machine decided to send but the
 * source queue could not yet hold), per-terminal receive assembly
 * (packets -> messages, keyed by (source, message kind)), per-terminal
 * RNGs, and the conservation accounting.
 */
class ClosedLoopWorkload : public Workload
{
  public:
    WorkloadAccount account() const override;

  protected:
    /** Message kind carried in tag bits 16+ (packets in bits 0..15). */
    enum Kind : std::uint32_t
    {
        kReq = 0,
        kResp = 1,
        kFlow = 2,
    };

    static std::uint32_t
    makeTag(Kind k, int packets)
    {
        return (static_cast<std::uint32_t>(k) << 16) |
               static_cast<std::uint32_t>(packets);
    }
    static int tagPackets(std::uint32_t tag)
    {
        return static_cast<int>(tag & 0xFFFFu);
    }
    static Kind tagKind(std::uint32_t tag)
    {
        return static_cast<Kind>(tag >> 16);
    }

    struct Msg
    {
        std::int32_t dest;
        std::int32_t packets;
        std::uint32_t tag;
    };

    /** Allocate the per-terminal state (call first from init()). */
    void allocCommon(long long terminals, long long win_start,
                     long long win_end, std::uint64_t seed);

    Rng &rngOf(long long t) { return rng_[static_cast<std::size_t>(t)]; }
    bool inWindow(long long cycle) const
    {
        return cycle >= ws_ && cycle < we_;
    }

    /** Buffer a message for later flush() (counts it as created). */
    void push(long long t, long long dest, int packets, std::uint32_t tag);
    /** Send buffered messages in order; true when the buffer drained. */
    bool flush(long long t, WorkloadPort &port, WorkloadStats &st);
    bool hasPending(long long t) const
    {
        return pending_head_[static_cast<std::size_t>(t)] <
               pending_[static_cast<std::size_t>(t)].size();
    }

    /**
     * Account one arriving packet at terminal @p t; true when it
     * completes its message.  Closed-loop discipline guarantees at
     * most one in-flight message per (src, dst, kind), so the key
     * (src, kind) is unambiguous.
     */
    bool receive(long long t, long long src, std::uint32_t tag);

    /** 1 + floor(Exp(mean)): geometric-like think-time draw, >= 1. */
    long long expGap(Rng &rng, double mean) const;

    long long terms_ = 0, ws_ = 0, we_ = 0;

  private:
    struct Assembly
    {
        std::uint64_t key;
        std::int32_t got;
        std::int32_t need;
    };

    std::vector<Rng> rng_;
    std::vector<std::vector<Msg>> pending_;
    std::vector<std::uint32_t> pending_head_;
    std::vector<std::vector<Assembly>> assembly_;
    // Per-terminal accounting, summed by account().
    std::vector<long long> msgs_created_, msgs_delivered_;
    std::vector<long long> pkts_created_, pkts_received_;
};

/**
 * RPC request/response (incast = false) and incast waves (incast =
 * true); the two share the request -> responses -> think state
 * machine and differ only in who the clients are and how servers are
 * picked (uniform random per RPC vs the fixed worker group).
 */
class RequestResponseWorkload final : public ClosedLoopWorkload
{
  public:
    struct Params
    {
        bool incast = false;
        int fanout = 2;          //!< servers per request (fanin for incast)
        int req_packets = 1;
        int resp_packets = 4;
        double think_mean = 256.0;  //!< mean think cycles between waves
    };

    explicit RequestResponseWorkload(Params p);

    std::string name() const override;
    void init(long long terminals, long long win_start, long long win_end,
              std::uint64_t seed) override;
    void onWake(long long term, long long now, WorkloadPort &port,
                WorkloadStats &st) override;
    void onDeliver(long long term, long long src, std::uint32_t tag,
                   long long gen, long long done, long long now,
                   WorkloadPort &port, WorkloadStats &st) override;

  private:
    void startRequest(long long t, long long now);
    void pump(long long t, long long now, WorkloadPort &port,
              WorkloadStats &st);

    Params p_;
    int fanout_eff_ = 0;  //!< rpc fanout clamped to terminals - 1
    std::vector<std::uint8_t> is_client_;
    std::vector<std::vector<std::int32_t>> workers_;  //!< incast groups
    std::vector<std::int32_t> outstanding_;
    std::vector<long long> started_;
    /** Next-request timer: -2 = unstarted, -1 = none, else cycle. */
    std::vector<long long> timer_;
};

/** All-to-all coflow phases gated on the slowest flow (global step). */
class CoflowWorkload final : public ClosedLoopWorkload
{
  public:
    struct Params
    {
        int group = 8;        //!< terminals per all-to-all group (>= 2)
        int flow_packets = 4; //!< packets per point-to-point flow
    };

    explicit CoflowWorkload(Params p);

    std::string name() const override { return "coflow"; }
    void init(long long terminals, long long win_start, long long win_end,
              std::uint64_t seed) override;
    void onWake(long long term, long long now, WorkloadPort &port,
                WorkloadStats &st) override;
    void onDeliver(long long term, long long src, std::uint32_t tag,
                   long long gen, long long done, long long now,
                   WorkloadPort &port, WorkloadStats &st) override;
    void onGlobalStep(long long now, WorkloadPort &port,
                      WorkloadStats &st) override;

  private:
    Params p_;
    std::vector<std::vector<std::int32_t>> peers_;
    std::vector<long long> participants_;
    std::vector<long long> sent_phase_;  //!< last phase this terminal queued
    std::vector<long long> recv_done_;   //!< flows received this phase
    std::vector<long long> last_done_;   //!< latest tail arrival this phase
    // Phase state: written at init and inside the global step only;
    // the per-terminal callbacks only read it.
    long long phase_ = 0;
    long long phase_start_ = 0;
    long long flows_expected_ = 0;
};

/**
 * Declarative workload description used by closed-loop study points
 * (Case::workload), benches and tests; kind selects the concrete
 * class, the rest parameterizes it.
 */
struct WorkloadSpec
{
    std::string kind = "rpc";  //!< rpc | incast | coflow
    int fanout = 2;            //!< rpc: servers per RPC
    int fanin = 8;             //!< incast: workers per aggregator
    int req_packets = 1;
    int resp_packets = 4;
    double think_mean = 256.0; //!< mean think cycles at load 1.0
    int group = 8;             //!< coflow: group size
    int flow_packets = 4;      //!< coflow: packets per flow at load 1.0

    /** Compact display label, e.g. "rpc(f2,1:4,t256)". */
    std::string label() const;
};

/**
 * Instantiate the workload @p spec names with SimConfig-style offered
 * load in (0, 1] mapped onto its pressure axis (think_mean / load for
 * rpc and incast; flow_packets * load, rounded, for coflows).
 */
std::unique_ptr<Workload> makeWorkload(const WorkloadSpec &spec,
                                       double load);

} // namespace rfc

#endif // RFC_WORKLOAD_CLOSED_LOOP_HPP
