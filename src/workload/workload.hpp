/**
 * @file
 * Closed-loop workload hook contract of the VCT core engine.
 *
 * Open-loop traffic (sim/traffic.hpp) decides *where* packets go while
 * the engine decides *when* (Bernoulli coin flips per cycle).  A
 * Workload inverts that: the engine stops generating packets on its
 * own and instead drives the workload through three deterministic
 * event callbacks -
 *
 *  - onWake(term, now):     a timer the workload armed via
 *                           WorkloadPort::wakeAt fired for @p term;
 *  - onDeliver(term, ...):  a packet ejected at @p term (called at the
 *                           commit cycle, with the tail-arrival time);
 *  - onGlobalStep(now):     end-of-cycle step, run exactly in the
 *                           cycles where some callback called
 *                           WorkloadPort::signalGlobal; a workload that
 *                           never signals never gets one.
 *
 * Sources that wait for replies close the loop: a terminal only sends
 * when the workload's state machine says so (request issued, response
 * owed, coflow phase open), and new work is gated on deliveries.
 *
 * Determinism contract: the engine runs every callback on its one
 * thread in a fixed order - due wakes before the cycle's injections,
 * deliveries in arbitration order, then the global step - so a
 * workload whose draws come from the seed it is given at init()
 * produces the same results on every run.  A message sent from onWake
 * can inject the same cycle; one sent from onDeliver or onGlobalStep
 * injects from the next cycle.  See DESIGN.md 4.13.
 */
#ifndef RFC_WORKLOAD_WORKLOAD_HPP
#define RFC_WORKLOAD_WORKLOAD_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/core/histogram.hpp"

namespace rfc {

/**
 * Engine services exposed to workload callbacks.  Implemented by the
 * engine; valid only for the duration of one callback.
 */
class WorkloadPort
{
  public:
    virtual ~WorkloadPort() = default;

    /**
     * Queue a @p packets -packet message from terminal @p src to
     * terminal @p dest into @p src's source queue, all packets stamped
     * with the current cycle as generation time and carrying @p tag
     * (delivered verbatim to onDeliver at the receiver).  Atomic: when
     * the source queue cannot hold the whole message (or @p dest is
     * unreachable under the current routing tables) nothing is queued
     * and the call returns false - retry from a later callback.
     * Throws std::invalid_argument when the message could never fit
     * (packets outside [1, SimConfig::kSourceQueue]) or a terminal is
     * out of range.
     */
    virtual bool send(long long src, long long dest, int packets,
                      std::uint32_t tag) = 0;

    /**
     * Arm terminal @p term's wake timer for cycle @p at (clamped to
     * now + 1 when not in the future): onWake(term, at) will fire.
     * One timer per terminal - a second call overwrites the first.
     */
    virtual void wakeAt(long long term, long long at) = 0;

    /**
     * Request onGlobalStep at the end of this cycle (once, however
     * often it is called within the cycle).
     */
    virtual void signalGlobal() = 0;
};

/**
 * Workload statistics of one run, filled by the callbacks.
 * Window-gated fields use the tail-arrival time of the completing
 * packet against the measurement window passed to init().
 */
struct WorkloadStats
{
    long long messages_sent = 0;   //!< messages fully queued via send()
    long long requests_sent = 0;   //!< of which request-kind
    long long responses_sent = 0;  //!< of which response-kind
    long long window_packets = 0;  //!< workload packets ejected in window
    long long flows_done = 0;      //!< messages fully received in window
    long long rpcs_done = 0;       //!< RPCs / incast waves done in window
    long long flows_done_all = 0;  //!< all-time fully received messages
    long long rpcs_done_all = 0;   //!< all-time completed RPCs / waves
    long long coflow_phases_all = 0;  //!< all-time completed coflow phases
    double fct_sum = 0.0;          //!< window flow-completion-time sum
    double rpc_sum = 0.0;          //!< window RPC-latency sum
    LatencyHistogram fct_hist;     //!< window per-message FCTs
    LatencyHistogram rpc_hist;     //!< window RPC / wave latencies
    std::vector<double> ccts;      //!< window coflow completion times
};

/**
 * Message/packet accounting a workload must keep so the engine can
 * close the conservation equation at the end of a run:
 *
 *   pkts_created == pkts_pending + source-queued + in-flight
 *                   + pkts_received
 *
 * (checked in collectResult under RFC_CHECK_INVARIANTS; the residual
 * is always reported in WorkloadMetrics).
 */
struct WorkloadAccount
{
    long long msgs_created = 0;    //!< messages the workload decided to send
    long long msgs_delivered = 0;  //!< messages fully received
    long long pkts_created = 0;    //!< packets of all created messages
    long long pkts_pending = 0;    //!< packets still buffered in the workload
    long long pkts_received = 0;   //!< packets seen by onDeliver
};

/** Closed-loop traffic source strategy driven by the engine. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /**
     * Bind to a fabric of @p terminals terminals before cycle 0.  The
     * measurement window is [win_start, win_end); @p seed is derived
     * from the simulation seed (workload draws never touch the
     * engine's stream).  Every terminal receives an initial onWake at
     * cycle 0.
     */
    virtual void init(long long terminals, long long win_start,
                      long long win_end, std::uint64_t seed) = 0;

    /** Timer armed via WorkloadPort::wakeAt fired for @p term. */
    virtual void onWake(long long term, long long now, WorkloadPort &port,
                        WorkloadStats &st) = 0;

    /**
     * A packet from @p src tagged @p tag ejected at @p term: generated
     * at cycle @p gen, tail arriving at cycle @p done (> now, the
     * commit cycle the callback runs in).
     */
    virtual void onDeliver(long long term, long long src,
                           std::uint32_t tag, long long gen,
                           long long done, long long now,
                           WorkloadPort &port, WorkloadStats &st) = 0;

    /**
     * End-of-cycle step; runs only in cycles where some callback
     * called signalGlobal().  @p st is the run's statistics.
     */
    virtual void
    onGlobalStep(long long now, WorkloadPort &port, WorkloadStats &st)
    {
        (void)now;
        (void)port;
        (void)st;
    }

    /** Message/packet accounting snapshot (see WorkloadAccount). */
    virtual WorkloadAccount account() const = 0;
};

} // namespace rfc

#endif // RFC_WORKLOAD_WORKLOAD_HPP
