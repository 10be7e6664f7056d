/**
 * @file
 * The unified cycle-driven virtual cut-through flow-control engine.
 *
 * Everything both simulators share lives here exactly once: per-VC
 * input FIFOs with credit accounting, link/crossbar busy tracking,
 * random arbitration (reservoir sampling, one iteration), open-loop
 * Bernoulli injection with finite source queues, warmup/measurement
 * accounting, the RFC_CHECK_INVARIANTS conservation guards, and the
 * perf-counter layer.  What differs between the folded Clos and the
 * direct (Jellyfish) simulators is expressed as a compile-time
 * routing Policy, one per network family: UpDownPolicy
 * (policy_updown.hpp, every RouteMode) and KspPolicy (policy_ksp.hpp,
 * every PathPolicy).  The contract:
 *
 *   struct Policy {
 *     // Packet payload.  The engine-owned fields listed below are
 *     // mandatory; everything else is the policy's routing state.
 *     struct Pkt { std::int32_t gen, next, ready;
 *                  std::uint8_t noroute; ... };
 *     bool routable(long long term, long long dest) const;
 *     // Inject the head-of-queue packet of term: return its injection
 *     // VC and write p's routing fields, or return -1 (retry next
 *     // cycle) and leave p untouched.  `cv.injCredits(term)` is the
 *     // terminal's per-VC credit row.  May draw from rng (Valiant/UGAL
 *     // intermediate pick, credit tie-breaks, the KSP path).
 *     int inject(const CongestionView &cv, long long term,
 *                std::int32_t dest, Rng &rng, Pkt &p);
 *     // Local output port at switch s, or -1 (unroutable).  Sets
 *     // sole when the returned port was the only legal one
 *     // (ejection, a one-port choice set, a fixed path's hop), so a
 *     // head blocked on it may sleep until it frees; false when
 *     // another call could pick a different port.
 *     int routeOut(const CongestionView &cv, int s, Pkt &p, Rng &rng,
 *                  bool &sole);
 *     // Legal output VCs [lo, hi) of p's next hop: a head competes
 *     // for its output only while one of them has credit.
 *     void vcRange(const Pkt &p, int &lo, int &hi) const;
 *     // Output VC among those with credit on out port o_gid
 *     // (cv.credit(o_gid, v)), or -1 (blocked).
 *     int chooseOutVc(const CongestionView &cv, std::int64_t o_gid,
 *                     const Pkt &p, Rng &rng);
 *     void onForward(Pkt &p);          // per-hop bookkeeping
 *     double hopsOf(const Pkt &p) const;
 *     // Optional, for a policy that caches routing state in its Pkt
 *     // (UpDownPolicy's next-hop set): right after every cycle hook,
 *     // which may change the routing tables, the engine calls
 *     // forgetRoute on every packet in its arena, so no buffered
 *     // packet keeps a set from the old tables.  With the guards on,
 *     // routeCacheFresh(s, p) is asked before every routeOut at
 *     // switch s and a false answer is reported as "route-cache".
 *     void forgetRoute(Pkt &p) const;
 *     bool routeCacheFresh(int s, const Pkt &p) const;
 *   };
 *
 * The CongestionView (sim/core/congestion.hpp) passed at the three
 * decision points is a read-only window over output and injection
 * credits; its header documents exactly which state a policy reads
 * from which call.  Oblivious routing ignores it; UGAL
 * (policy_updown.hpp) steers by it, and flowlet switching
 * (policy_ksp.hpp) reads its clock.
 *
 * Engine-owned Pkt fields - the one convention every policy's Pkt
 * must carry verbatim (policies reference this block rather than
 * re-documenting it):
 *
 *   std::int32_t gen;      birth cycle, set at injection; latency and
 *                          TTL accounting key off it.
 *   std::uint8_t noroute;  1 while the packet is parked without a
 *                          route (runtime fault); the engine sets and
 *                          clears it around routeOut() == -1.
 *   std::int32_t next;     the packet behind this one in its input-VC
 *                          FIFO (-1 at the tail): the FIFOs are
 *                          threaded through the packet arena.
 *   std::int32_t ready;    cycle the packet's header reaches the input
 *                          VC it waits in (set on every enqueue).
 *
 * Policies never read or write these four; they only make room for
 * them, in whatever order packs their Pkt tightest.  What only a
 * closed-loop workload needs - each packet's source terminal and
 * message tag, handed to its ejection callback - is not in the Pkt:
 * the engine keeps it in a side table indexed by packet id (8 B per
 * id), which exists only while a workload is attached, is written at
 * every injection (a recycled id included) and is read at ejection.
 *
 * Execution: one simulation runs on one thread with one RNG stream,
 * deriveSeed(seed, 0x5A4D0000, 0).  Each cycle applies the due cycle
 * hook, then releases credits, generates (or fires workload wakes),
 * injects, arbitrates, and ends with the workload's global step and
 * the guards.  Independent trials run in parallel on the experiment
 * engine's `--jobs` pool instead (exp/experiment.hpp).
 *
 * Nothing rescans idle state: each input VC sleeps on the wake wheel
 * until the earliest cycle it could next act - its head's ready
 * time, its input port's busy release, or, when the head is blocked on
 * a transmitting output that routeOut reported as its sole legal port,
 * that output's busy release (capped at the next cycle-hook cycle,
 * since a hook may reroute it).  Heads with several legal ports and
 * credit-blocked heads retry every cycle: the former re-draw their
 * port, the latter compete for credits another head may take first.
 * A sleep only skips visits that could not move the head, so flow
 * control and the arbitration rule are unchanged.  The skipped visits
 * no longer consume draws and wake order shifts, so the random stream
 * differs from polling every cycle while the distribution of results
 * does not.  A VC sits on at most one wake slot at a time (a one-byte
 * flag per input VC says whether it does).  The arbiter copies its
 * slot into a reusable array a chunk at a time and walks that in the
 * same order, so it can prefetch a few visits ahead what each due VC's
 * visit will load.
 *
 * Memory follows what is live, not what could be: an input VC's
 * buffer is a FIFO threaded through the packets' next fields (head,
 * tail and count per VC), and all four wheels - release, generation,
 * injection and wake - are SlotQueues, whose one chunk pool holds only
 * the entries pending at once plus part of a chunk at either end of a
 * slot.  Both are FIFO in push order, which is all the visit order and
 * the draw sequence rely on.
 */
#ifndef RFC_SIM_CORE_ENGINE_HPP
#define RFC_SIM_CORE_ENGINE_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/guard.hpp"
#include "sim/core/config.hpp"
#include "sim/core/congestion.hpp"
#include "sim/core/histogram.hpp"
#include "sim/core/layout.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace rfc {

namespace core_detail {

/**
 * Chunked packet arena: indices stay valid and storage never moves,
 * so a packet reference survives later allocations.  The engine
 * allocates only when its free list is empty, and every live packet
 * sits in exactly one input-VC FIFO of at most buf_packets entries, so
 * the arena never outgrows the input buffers (ports x vcs x
 * buf_packets, checked to fit int32 at construction).  The closed-loop
 * side table is a second arena of the same ids, grown with this one.
 */
template <class Pkt>
class PktArena
{
  public:
    static constexpr int kChunkShift = 12;
    static constexpr std::int32_t kChunkSize = 1 << kChunkShift;

    /** Storage of the packet the next append() returns. */
    Pkt &
    peekAppend()
    {
        if (static_cast<std::size_t>(count_ >> kChunkShift) ==
            chunks_.size())
            chunks_.push_back(std::make_unique<Pkt[]>(kChunkSize));
        return at(count_);
    }

    std::int32_t
    append()
    {
        peekAppend();
        return count_++;
    }

    Pkt &
    at(std::int32_t idx)
    {
        return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
    }

    std::int32_t size() const { return count_; }

  private:
    std::vector<std::unique_ptr<Pkt[]>> chunks_;
    std::int32_t count_ = 0;
};

/**
 * Timing wheel: one FIFO per slot, each kept in fixed-size chunks of
 * kChunk entries taken from one shared chunk pool with a free list, so
 * a push writes and a drain reads consecutive entries rather than
 * chasing one link per entry.  A chunk goes back to the free list as
 * soon as its last entry is popped (pop() copies the entry out first)
 * and the next chunk a push needs reuses it, so the pool holds as many
 * chunks as were ever in use at once: a slot with live entries uses
 * ceil((consumed + live) / kChunk) of them, where consumed < kChunk is
 * what was already popped from its head chunk.  Entries are opaque:
 * duplicates stay queued side by side.  Pushing into any slot while
 * another is being drained is safe (positions survive pool growth); a
 * slot pushed while it drains yields those entries in the same drain.
 */
template <class T>
class SlotQueue
{
  public:
    static constexpr std::int32_t kChunk = 32;

    explicit SlotQueue(std::size_t slots = 0) : ends_(slots) {}

    void
    push(std::size_t slot, const T &value)
    {
        Ends &e = ends_[slot];
        if (e.head < 0) {
            e.head = e.tail = newChunk();
        } else if ((e.tail + 1) % kChunk == 0) {
            const std::int32_t c = newChunk();
            next_[e.tail / kChunk] = c / kChunk;
            e.tail = c;
        } else {
            ++e.tail;
        }
        items_[e.tail] = value;
    }

    bool empty(std::size_t slot) const { return ends_[slot].head < 0; }

    /** Remove and return the oldest entry of @p slot (must be non-empty). */
    T
    pop(std::size_t slot)
    {
        Ends &e = ends_[slot];
        const T value = items_[e.head];
        if (e.head == e.tail) {
            freeChunk(e.head / kChunk);
            e.head = e.tail = -1;
        } else if ((e.head + 1) % kChunk == 0) {
            const std::int32_t c = e.head / kChunk;
            e.head = next_[c] * kChunk;
            freeChunk(c);
        } else {
            ++e.head;
        }
        return value;
    }

    /**
     * Append every entry of @p slot to @p out in order, a chunk at a
     * time, and leave the slot empty with its chunks freed.
     */
    void
    drainInto(std::size_t slot, std::vector<T> &out)
    {
        Ends &e = ends_[slot];
        if (e.head < 0)
            return;
        std::int32_t at = e.head;
        for (;;) {
            const std::int32_t c = at / kChunk;
            const bool last = c == e.tail / kChunk;
            const std::int32_t end = last ? e.tail + 1 : (c + 1) * kChunk;
            out.insert(out.end(), items_.begin() + at, items_.begin() + end);
            const std::int32_t after = next_[c];
            freeChunk(c);
            if (last)
                break;
            at = after * kChunk;
        }
        e.head = e.tail = -1;
    }

    /** Call @p f on every entry of @p slot in order, leaving them queued. */
    template <class F>
    void
    forEach(std::size_t slot, F f) const
    {
        const Ends &e = ends_[slot];
        if (e.head < 0)
            return;
        for (std::int32_t at = e.head;;) {
            f(items_[at]);
            if (at == e.tail)
                return;
            at = (at + 1) % kChunk == 0 ? next_[at / kChunk] * kChunk
                                        : at + 1;
        }
    }

    /** Chunks ever allocated: the peak number in use at once. */
    std::size_t chunkCount() const { return next_.size(); }

  private:
    /** Position of the first entry of a fresh chunk. */
    std::int32_t
    newChunk()
    {
        std::int32_t c = free_;
        if (c >= 0) {
            free_ = next_[c];
        } else {
            c = static_cast<std::int32_t>(next_.size());
            next_.push_back(-1);
            items_.resize(items_.size() + kChunk);
        }
        return c * kChunk;
    }

    void
    freeChunk(std::int32_t c)
    {
        next_[c] = free_;
        free_ = c;
    }

    /** First and last entry of a slot as positions in items_, or -1. */
    struct Ends
    {
        std::int32_t head = -1, tail = -1;
    };
    std::vector<T> items_;             //!< chunk c is [c * kChunk, +kChunk)
    std::vector<std::int32_t> next_;   //!< next chunk of its slot or free list
    std::vector<Ends> ends_;
    std::int32_t free_ = -1;
};

} // namespace core_detail

template <class Policy>
class VctEngine
{
  public:
    using Pkt = typename Policy::Pkt;

    /**
     * Bind the engine to a fabric, a traffic pattern and a routing
     * policy.  @p layout and @p traffic must outlive the engine.
     */
    VctEngine(const FabricLayout &lay, Traffic &traffic, SimConfig cfg,
              Policy policy)
        : lay_(lay), traffic_(traffic), cfg_(cfg),
          policy_(std::move(policy))
    {
        cfg_.validate();
        buildStructures();
    }

    /** Run warm-up plus measurement and return the metrics. */
    SimResult run();

    /**
     * Install a deterministic cycle hook (the fault-injection entry
     * point).  At the start of every cycle listed in @p cycles, before
     * that cycle's releases, the engine invokes @p hook(now) and then
     * empties every packet's cached route (the policy's forgetRoute) -
     * so the hook may mutate the routing tables the policy reads.  The
     * hook cycles are part of the experiment definition.  Must be
     * called before run().
     */
    void
    setCycleHook(std::vector<long long> cycles,
                 std::function<void(long long)> hook)
    {
        std::sort(cycles.begin(), cycles.end());
        cycles.erase(std::unique(cycles.begin(), cycles.end()),
                     cycles.end());
        if (!cycles.empty() && cycles.front() < 0)
            throw std::invalid_argument(
                "VctEngine: hook cycles must be >= 0");
        hook_cycles_ = std::move(cycles);
        hook_ = std::move(hook);
        hook_idx_ = 0;
    }

    /**
     * Attach a closed-loop workload (see workload/workload.hpp): the
     * engine stops generating open-loop traffic and instead drives
     * @p wl through onWake/onDeliver callbacks (plus the end-of-cycle
     * onGlobalStep in cycles where one signalled).  Every terminal gets
     * an initial onWake at cycle 0.  @p wl must outlive the engine;
     * nullptr detaches.  Must be called before run().  Workload draws
     * come from a dedicated deriveSeed stream, so attaching a workload
     * never perturbs the engine's arbitration draws.
     */
    void
    setWorkload(Workload *wl)
    {
        wl_ = wl;
        wl_meta_ = {};
        if (wl != nullptr) {
            wl_next_.assign(lay_.num_terms, -1);
            src_tag_.assign(
                static_cast<std::size_t>(lay_.num_terms) * kSourceQueue, 0);
        }
    }

    /**
     * Gate the run: only the prefix [0, @p count) of the terminals
     * generates traffic from cycle 0 (1 <= @p count <= terminal count;
     * the runtime checks the bound).  Inactive terminals hold no
     * source-queue packets and are excluded from destination draws of
     * prefix-aware traffic patterns.  Must be called before run();
     * incompatible with a closed-loop workload.
     */
    void gateTerminals(long long count) { active_terms_ = count; }

    /**
     * Raise the active-terminal prefix to min(@p upto, terminal
     * count) at cycle @p now - the expansion activation barrier.  Must
     * be called from the hook installed with setCycleHook(), which
     * runs before this cycle's generation pass.  Newly active
     * terminals start generating from a deterministic stagger (no RNG
     * draws, so the pre-existing terminals' streams are untouched).
     * Never deactivates; excess calls are no-ops.  Incompatible with a
     * closed-loop workload.
     */
    void
    activateTerminals(long long upto, long long now)
    {
        if (wl_ != nullptr)
            throw std::logic_error(
                "VctEngine: terminal activation is open-loop only");
        const long long target = std::min(upto, lay_.num_terms);
        if (target <= active_terms_)
            return;
        for (long long t = active_terms_; t < target; ++t) {
            // Deterministic stagger over one packet time, starting
            // next cycle (+1 keeps activation effects strictly after
            // the hook).
            const long long start = now + 1 + (t % cfg_.pkt_phits);
            next_gen_[t] = static_cast<std::int32_t>(start);
            gen_wheel_.push(start % kGenWheel, static_cast<std::int32_t>(t));
        }
        active_terms_ = target;
        traffic_.setActiveTerminals(active_terms_);
    }

    /** Current active-terminal prefix length. */
    long long activeTerminals() const { return active_terms_; }

    /**
     * Packets currently inside the fabric (allocated and not freed).
     * Safe from cycle-hook context; used to account the traffic a
     * topology-change barrier must preserve.
     */
    long long
    inFlightNow() const
    {
        return static_cast<long long>(arena_.size()) -
               static_cast<long long>(free_pkts_.size());
    }

    /** Guard results (empty unless built with RFC_CHECK_INVARIANTS). */
    const CheckContext &checkContext() const { return check_; }

  private:
    static constexpr bool kGuards = invariantChecksEnabled();
    static constexpr int kGenWheel = SimConfig::kGenWheelSlots;
    static constexpr int kSourceQueue = SimConfig::kSourceQueue;

    struct Release
    {
        std::int32_t feeder;
        std::int8_t vc;
    };

    /** What a closed-loop workload needs of a packet at its ejection. */
    struct WlMeta
    {
        std::int32_t src;  //!< source terminal
        std::uint32_t tag; //!< workload message tag
    };

    // ---- construction ----------------------------------------------
    void buildStructures();

    // ---- packet pool ------------------------------------------------
    Pkt &pkt(std::int32_t id) { return arena_.at(id); }

    /**
     * First input VC of the in-port that out port @p o_gid feeds, or
     * -1 at an ejection port.
     */
    std::int64_t
    peerIvcBase(std::int64_t o_gid) const
    {
        const std::int32_t peer = lay_.out_peer_iport[o_gid];
        return peer < 0 ? -1 : static_cast<std::int64_t>(peer) * cfg_.vcs;
    }

    std::int32_t
    allocPkt()
    {
        if (!free_pkts_.empty()) {
            std::int32_t id = free_pkts_.back();
            free_pkts_.pop_back();
            return id;
        }
        return arena_.append();
    }

    /**
     * Storage of the packet the next allocPkt() returns, so injection
     * can route into it before it is allocated: a failed injection
     * allocates no packet.
     */
    Pkt &
    nextPkt()
    {
        return free_pkts_.empty() ? arena_.peekAppend()
                                  : pkt(free_pkts_.back());
    }

    // ---- shared per-cycle machinery --------------------------------
    /**
     * Materialize the policy-facing congestion window for cycle
     * @p now.  A handful of pointers into the SoA arrays (which never
     * reallocate after buildStructures), so building one per decision
     * site is free; what a policy reads is its contract (see
     * congestion.hpp).
     */
    CongestionView
    view(long long now) const
    {
        return CongestionView(lay_, cfg_.vcs, cfg_.buf_packets,
                              out_credits_.data(), inj_credits_.data(),
                              now);
    }

    void
    scheduleRelease(long long at, std::int32_t feeder, int vc)
    {
        release_wheel_.push(at % wheel_size_,
                            {feeder, static_cast<std::int8_t>(vc)});
    }

    void
    scheduleInjection(long long t, long long at)
    {
        if (!inj_scheduled_[t]) {
            inj_scheduled_[t] = 1;
            inj_wheel_.push(at % kGenWheel, static_cast<std::int32_t>(t));
        }
    }

    /**
     * @p at as a 32-bit cycle stamp.  Every cycle a run reaches fits
     * (SimConfig::validate); a later timer - a long geometric gap, a
     * far workload wake - saturates at INT32_MAX, past the last cycle,
     * so it stays unfired either way.
     */
    static std::int32_t
    stamp(long long at)
    {
        return static_cast<std::int32_t>(std::min<long long>(
            at, std::numeric_limits<std::int32_t>::max()));
    }

    /**
     * Push terminal @p t onto the generation wheel for cycle @p at >
     * @p now; an entry due past the wheel's reach lands in its last
     * slot and is re-pushed from there.
     */
    void
    genPush(std::int32_t t, long long at, long long now)
    {
        gen_wheel_.push(
            (now + std::min<long long>(at - now, kGenWheel - 1)) % kGenWheel,
            t);
    }

    /** Append @p ivc to the wake slot of cycle @p at, unless queued. */
    void
    wakePush(std::int64_t ivc, long long at, long long now)
    {
        if constexpr (kGuards) {
            check_.countChecks();
            if (at <= now || at - now >= wheel_size_)
                check_.report("wake-horizon", now,
                              lay_.port_owner[ivc / cfg_.vcs],
                              static_cast<int>(ivc % cfg_.vcs),
                              "wake at cycle " + std::to_string(at) +
                                  " is outside the " +
                                  std::to_string(wheel_size_) +
                                  "-slot wheel");
        }
        if (wake_queued_[ivc])
            return;
        wake_queued_[ivc] = 1;
        wake_wheel_.push(at % wheel_size_, static_cast<std::int32_t>(ivc));
    }

    /** Append @p pkt_id to input VC @p gi's FIFO (+ scheduling). */
    void
    enqueueInput(std::int64_t gi, std::int32_t pkt_id, std::int32_t ready,
                 long long now)
    {
        Pkt &p = pkt(pkt_id);
        p.next = -1;
        p.ready = ready;
        if (q_count_[gi]++ == 0) {
            vc_head_[gi] = pkt_id;
            wakePush(gi, std::max<long long>(ready, now + 1), now);
        } else {
            pkt(vc_tail_[gi]).next = pkt_id;
        }
        vc_tail_[gi] = pkt_id;
        if constexpr (kGuards) {
            ++slots_held_[gi];
            check_.countChecks();
            if (q_count_[gi] > cfg_.buf_packets)
                check_.report("vc-occupancy", now,
                              lay_.port_owner[gi / cfg_.vcs],
                              static_cast<int>(gi % cfg_.vcs),
                              "input buffer overfilled");
        }
    }

    void processReleases(long long now);
    void processGeneration(long long now);
    void processInjection(long long now);

    // ---- closed-loop workload hooks --------------------------------
    /** WorkloadPort bound to one callback invocation. */
    class PortImpl final : public WorkloadPort
    {
      public:
        PortImpl(VctEngine *e, long long now, long long inject_at)
            : e_(e), now_(now), inject_at_(inject_at)
        {
        }

        bool
        send(long long src, long long dest, int packets,
             std::uint32_t tag) override
        {
            return e_->workloadSend(src, dest, packets, tag, now_,
                                    inject_at_);
        }

        void
        wakeAt(long long term, long long at) override
        {
            e_->workloadWake(term, at, now_);
        }

        void signalGlobal() override { e_->wl_signal_ = true; }

      private:
        VctEngine *e_;
        long long now_, inject_at_;
    };

    bool workloadSend(long long src, long long dest, int packets,
                      std::uint32_t tag, long long now,
                      long long inject_at);
    void workloadWake(long long term, long long at, long long now);
    /** Closed-loop replacement for processGeneration: fire due timers. */
    void processWorkloadWakes(long long now);
    /** End-of-cycle onGlobalStep dispatch (a callback signalled). */
    void workloadGlobalStep(long long now);

    /** Arbitrate the input VCs due on the wake wheel. */
    void arbitrate(long long now);
    /** Shared commit step; returns true when the packet moved. */
    bool commitCandidate(std::int64_t gi, std::int64_t o_gid,
                         long long now);
    /** Dequeue the head of @p gi and schedule its slot release. */
    std::int32_t dequeueHead(std::int64_t gi, long long now);
    /** TTL-drop the head of @p gi (no route within route_ttl cycles). */
    void dropHead(std::int64_t gi, long long now);
    /** Record an ejection in the telemetry bin series. */
    void
    recordBin(long long now)
    {
        if (cfg_.telemetry_bin > 0) {
            auto b = static_cast<std::size_t>(now / cfg_.telemetry_bin);
            if (b >= bins_.size())
                bins_.resize(b + 1, 0);
            ++bins_[b];
        }
    }

    void sampleOccupancy();

    // ---- guards -----------------------------------------------------
    /** End-of-cycle guards. */
    void guardCycle(long long now);
    void guardScanGlobal(long long now);
    void guardConservationGlobal(long long now);

    // ---- cycle hook (fault injection) ------------------------------
    bool
    hookDue(long long now) const
    {
        return hook_idx_ < hook_cycles_.size() &&
               hook_cycles_[hook_idx_] == now;
    }

    /**
     * @p at, capped at the next pending hook cycle: a hook may change
     * the routes a sleeping head is waiting on.
     */
    long long
    hookCapped(long long at) const
    {
        return hook_idx_ < hook_cycles_.size()
                   ? std::min(at, hook_cycles_[hook_idx_])
                   : at;
    }

    /**
     * Invoke the due hook, then empty every packet's per-packet route
     * cache (the policy's optional forgetRoute): the hook may have
     * rebuilt the oracle or the topology the cached sets came from.
     * The walk covers the whole arena, so every buffered packet is
     * reached; a free slot is re-initialized before reuse anyway.
     */
    void
    runHook(long long now)
    {
        hook_(now);
        ++hook_idx_;
        if constexpr (requires(Policy &pol, Pkt &p) {
                          pol.forgetRoute(p);
                      }) {
            for (std::int32_t id = 0; id < arena_.size(); ++id)
                policy_.forgetRoute(pkt(id));
        }
    }

    /**
     * Guard: a head's cached next-hop set (if its policy keeps one)
     * must equal what the oracle gives now, or routeOut would draw
     * from a stale set.
     */
    void
    guardRouteCache(int s, std::int32_t id, long long now)
    {
        if constexpr (requires(const Policy &pol, const Pkt &p) {
                          pol.routeCacheFresh(s, p);
                      }) {
            check_.countChecks();
            if (!policy_.routeCacheFresh(s, pkt(id)))
                check_.report("route-cache", now, s, -1,
                              "packet " + std::to_string(id) +
                                  " holds a stale next-hop set");
        }
    }

    // ---- run loop ---------------------------------------------------
    void runCycles(long long total);
    SimResult collectResult(double wall_seconds);

    // ---- immutable structure ---------------------------------------
    const FabricLayout &lay_;
    Traffic &traffic_;
    SimConfig cfg_;
    Policy policy_;
    long long wheel_size_ = 0;

    // Two invariants let every per-port, per-VC and per-terminal array
    // below hold int32: input-VC ids fit, since construction rejects
    // ports x vcs x buf_packets > INT32_MAX; and every cycle stamp
    // fits, since SimConfig::validate caps warmup + measure +
    // link_latency + pkt_phits at INT32_MAX (timers past the run
    // saturate there, see stamp()).  Each out port's peer in-port is
    // read from the layout (peerIvcBase).

    // ---- hot state (SoA) -------------------------------------------
    std::vector<std::int32_t> out_busy_;
    std::vector<std::int16_t> out_credits_;  //!< [gid * vcs + vc]
    std::vector<std::int32_t> in_busy_;
    /** Input-VC FIFOs through Pkt::next, [ivc]: head and tail packet
     *  ids (meaningful only while q_count_ > 0) and the depth. */
    std::vector<std::int32_t> vc_head_, vc_tail_;
    std::vector<std::uint8_t> q_count_;

    /** [ivc]: 1 while the VC sits on a wake-wheel slot. */
    std::vector<std::uint8_t> wake_queued_;

    // ---- scheduling and packets ------------------------------------
    Rng rng_{0};
    core_detail::PktArena<Pkt> arena_;
    std::vector<std::int32_t> free_pkts_;
    core_detail::SlotQueue<Release> release_wheel_;
    core_detail::SlotQueue<std::int32_t> gen_wheel_, inj_wheel_;
    core_detail::SlotQueue<std::int32_t> wake_wheel_;  //!< input VC ids

    // ---- terminals --------------------------------------------------
    std::vector<std::int32_t> inj_busy_;
    std::vector<std::int8_t> inj_credits_;   //!< [t * vcs + vc]
    std::vector<std::int32_t> src_dest_;
    std::vector<std::int32_t> src_gen_;
    std::vector<std::int16_t> sq_head_, sq_count_;
    std::vector<std::int32_t> next_gen_;
    std::vector<std::uint8_t> inj_scheduled_;
    /** Active prefix [0, active_terms_): only these generate traffic
     *  (== num_terms unless gated; raised by activateTerminals()). */
    long long active_terms_ = 0;

    // ---- arbitration scratch, [out gid] ----------------------------
    std::vector<std::int32_t> cand_ivc_;    //!< reservoir-sampled winner
    std::vector<std::int32_t> cand_count_;  //!< 0 = no candidate yet
    std::vector<std::int32_t> touched_outs_;   //!< out gids
    std::vector<std::int32_t> scanned_ivcs_;
    std::vector<std::int32_t> due_;  //!< this cycle's drained wake slot

    // ---- cycle hook -------------------------------------------------
    std::vector<long long> hook_cycles_;
    std::size_t hook_idx_ = 0;
    std::function<void(long long)> hook_;

    // ---- closed-loop workload --------------------------------------
    Workload *wl_ = nullptr;
    bool wl_signal_ = false;  //!< onGlobalStep requested this cycle
    /** Per-terminal wake timer (-1 = none); gen_wheel_ entries whose
     *  terminal's timer moved or fired are dropped as stale. */
    std::vector<std::int32_t> wl_next_;
    /** Per source-queue slot: workload tag riding with the packet. */
    std::vector<std::uint32_t> src_tag_;
    /** Per packet id: its source and tag, written at injection (empty
     *  with no workload attached). */
    core_detail::PktArena<WlMeta> wl_meta_;
    WorkloadStats wl_stats_;

    // ---- measurement window and statistics -------------------------
    long long win_start_ = 0, win_end_ = 0;
    long long delivered_ = 0, generated_ = 0, suppressed_ = 0;
    long long unroutable_ = 0;
    double lat_sum_ = 0.0, hop_sum_ = 0.0;
    long long delivered_phits_ = 0;
    LatencyHistogram lat_hist_;
    PerfCounters perf_;

    // Fault-recovery accounting (whole run, always on).
    long long ejected_all_ = 0, dropped_ = 0, rerouted_ = 0;
    long long route_retries_ = 0;
    std::vector<long long> bins_;  //!< delivered per telemetry bin

    // ---- guards -----------------------------------------------------
    CheckContext check_;
    std::vector<std::int32_t> slots_held_;
    long long injected_ = 0, ejected_ = 0, queued_ = 0;
    long long last_progress_ = 0;
};

// ======================================================================
// construction
// ======================================================================

template <class Policy>
void
VctEngine<Policy>::buildStructures()
{
    const int V = cfg_.vcs;

    // The wake wheel and the arbitration scratch hold input-VC ids, and
    // packet ids index an arena no larger than the buffer slots (see
    // PktArena), all as int32.
    const std::int64_t ivcs = lay_.total_ports * V;
    const std::int64_t slots = ivcs * cfg_.buf_packets;
    if (slots > std::numeric_limits<std::int32_t>::max())
        throw std::invalid_argument(
            "VctEngine: " + std::to_string(lay_.total_ports) +
            " ports x " + std::to_string(V) + " VCs x " +
            std::to_string(cfg_.buf_packets) + " buffer packets = " +
            std::to_string(slots) +
            " buffer slots exceed the 32-bit packet index limit");

    out_busy_.assign(lay_.total_ports, 0);
    out_credits_.assign(lay_.total_ports * V,
                        static_cast<std::int16_t>(cfg_.buf_packets));
    in_busy_.assign(lay_.total_ports, 0);

    vc_head_.assign(ivcs, -1);
    vc_tail_.assign(ivcs, -1);
    q_count_.assign(ivcs, 0);
    wake_queued_.assign(ivcs, 0);

    inj_busy_.assign(lay_.num_terms, 0);
    inj_credits_.assign(lay_.num_terms * V,
                        static_cast<std::int8_t>(cfg_.buf_packets));
    src_dest_.assign(lay_.num_terms * kSourceQueue, -1);
    src_gen_.assign(lay_.num_terms * kSourceQueue, 0);
    sq_head_.assign(lay_.num_terms, 0);
    sq_count_.assign(lay_.num_terms, 0);
    next_gen_.assign(lay_.num_terms, 0);
    inj_scheduled_.assign(lay_.num_terms, 0);
    active_terms_ = lay_.num_terms;

    wheel_size_ = static_cast<long long>(cfg_.pkt_phits) +
                  cfg_.link_latency + 2;

    cand_ivc_.assign(lay_.total_ports, -1);
    cand_count_.assign(lay_.total_ports, 0);

    if constexpr (kGuards)
        slots_held_.assign(ivcs, 0);

    rng_ = Rng(deriveSeed(cfg_.seed, 0x5A4D0000ULL, 0));
    release_wheel_ = core_detail::SlotQueue<Release>(wheel_size_);
    gen_wheel_ = core_detail::SlotQueue<std::int32_t>(kGenWheel);
    inj_wheel_ = core_detail::SlotQueue<std::int32_t>(kGenWheel);
    wake_wheel_ = core_detail::SlotQueue<std::int32_t>(wheel_size_);
    perf_.occupancy.assign(cfg_.buf_packets + 1, 0);
}

// ======================================================================
// per-cycle machinery
// ======================================================================

template <class Policy>
void
VctEngine<Policy>::processReleases(long long now)
{
    const std::size_t slot = now % wheel_size_;
    while (!release_wheel_.empty(slot)) {
        const Release r = release_wheel_.pop(slot);
        if (r.feeder >= 0) {
            std::int16_t &cr =
                out_credits_[static_cast<std::int64_t>(r.feeder) *
                                 cfg_.vcs +
                             r.vc];
            ++cr;
            if constexpr (kGuards) {
                check_.countChecks();
                if (cr > cfg_.buf_packets)
                    check_.report("credit-overflow", now,
                                  lay_.port_owner[r.feeder], r.vc,
                                  "release beyond buffer capacity");
                --slots_held_[peerIvcBase(r.feeder) + r.vc];
            }
        } else {
            std::int64_t term = -static_cast<std::int64_t>(r.feeder) - 1;
            std::int8_t cr = ++inj_credits_[term * cfg_.vcs + r.vc];
            if constexpr (kGuards) {
                check_.countChecks();
                int sw = lay_.term_switch[term];
                if (cr > cfg_.buf_packets)
                    check_.report("credit-overflow", now, sw, r.vc,
                                  "terminal release beyond capacity");
                --slots_held_[std::int64_t{lay_.term_iport[term]} *
                                  cfg_.vcs +
                              r.vc];
            }
        }
    }
}

template <class Policy>
void
VctEngine<Policy>::processGeneration(long long now)
{
    const std::size_t slot = now % kGenWheel;
    if (gen_wheel_.empty(slot))
        return;
    const double p = cfg_.load / cfg_.pkt_phits;
    const double log1mp = std::log(1.0 - p);
    while (!gen_wheel_.empty(slot)) {
        const std::int32_t t = gen_wheel_.pop(slot);
        if (next_gen_[t] > now) {
            genPush(t, next_gen_[t], now);
            continue;
        }
        ++generated_;
        if (sq_count_[t] < kSourceQueue) {
            long long dest = traffic_.dest(t, rng_);
            if (!policy_.routable(t, dest)) {
                ++unroutable_;
            } else {
                int k = sq_head_[t] + sq_count_[t];
                if (k >= kSourceQueue)
                    k -= kSourceQueue;
                std::int64_t base =
                    static_cast<std::int64_t>(t) * kSourceQueue;
                src_dest_[base + k] = static_cast<std::int32_t>(dest);
                src_gen_[base + k] = static_cast<std::int32_t>(now);
                ++sq_count_[t];
                if constexpr (kGuards)
                    ++queued_;
                scheduleInjection(t, now);
            }
        } else {
            ++suppressed_;
        }
        // Geometric inter-arrival at packet rate p.
        double u = rng_.uniformReal();
        long long gap = 1 + static_cast<long long>(
                                std::floor(std::log(1.0 - u) / log1mp));
        if (gap < 1)
            gap = 1;
        next_gen_[t] = stamp(now + gap);
        genPush(t, now + gap, now);
    }
}

template <class Policy>
void
VctEngine<Policy>::processInjection(long long now)
{
    const std::size_t slot = now % kGenWheel;
    if (inj_wheel_.empty(slot))
        return;
    const int V = cfg_.vcs;
    const CongestionView cv = view(now);
    while (!inj_wheel_.empty(slot)) {
        const std::int32_t t = inj_wheel_.pop(slot);
        inj_scheduled_[t] = 0;
        if (sq_count_[t] == 0)
            continue;
        if (inj_busy_[t] > now) {
            scheduleInjection(t, inj_busy_[t]);
            continue;
        }
        std::int64_t base = static_cast<std::int64_t>(t) * kSourceQueue;
        std::int32_t dest = src_dest_[base + sq_head_[t]];
        Pkt &p = nextPkt();
        const int best_vc = policy_.inject(cv, t, dest, rng_, p);
        if (best_vc < 0) {
            scheduleInjection(t, now + 1);
            continue;
        }

        int k = sq_head_[t];
        std::int32_t gen = src_gen_[base + k];
        sq_head_[t] = static_cast<std::int16_t>((k + 1) % kSourceQueue);
        --sq_count_[t];
        if constexpr (kGuards) {
            --queued_;
            ++injected_;
            last_progress_ = now;
        }

        const std::int32_t id = allocPkt();  // the packet p refers to
        p.gen = gen;
        p.noroute = 0;
        if (wl_ != nullptr) {
            while (wl_meta_.size() <= id)
                wl_meta_.append();
            wl_meta_.at(id) = {t, src_tag_[base + k]};
        }

        std::int64_t gi = std::int64_t{lay_.term_iport[t]} * V + best_vc;
        enqueueInput(gi, id,
                     static_cast<std::int32_t>(now + cfg_.link_latency),
                     now);
        --inj_credits_[static_cast<std::int64_t>(t) * V + best_vc];
        inj_busy_[t] = static_cast<std::int32_t>(now + cfg_.pkt_phits);
        if (sq_count_[t] > 0)
            scheduleInjection(t, inj_busy_[t]);
    }
}

// ======================================================================
// closed-loop workload hooks
// ======================================================================

/**
 * Queue a whole workload message into @p src's source queue (the
 * WorkloadPort::send contract).
 */
template <class Policy>
bool
VctEngine<Policy>::workloadSend(long long src, long long dest,
                                int packets, std::uint32_t tag,
                                long long now, long long inject_at)
{
    if (packets < 1 || packets > kSourceQueue)
        throw std::invalid_argument(
            "WorkloadPort::send: message of " + std::to_string(packets) +
            " packets can never fit a " +
            std::to_string(kSourceQueue) + "-packet source queue");
    if (src < 0 || src >= lay_.num_terms || dest < 0 ||
        dest >= lay_.num_terms)
        throw std::invalid_argument(
            "WorkloadPort::send: terminal out of range");
    if (sq_count_[src] + packets > kSourceQueue)
        return false;
    if (!policy_.routable(src, dest))
        return false;
    const std::int64_t base = static_cast<std::int64_t>(src) * kSourceQueue;
    for (int i = 0; i < packets; ++i) {
        int k = sq_head_[src] + sq_count_[src];
        if (k >= kSourceQueue)
            k -= kSourceQueue;
        src_dest_[base + k] = static_cast<std::int32_t>(dest);
        src_gen_[base + k] = static_cast<std::int32_t>(now);
        src_tag_[base + k] = tag;
        ++sq_count_[src];
        ++generated_;
        if constexpr (kGuards)
            ++queued_;
    }
    scheduleInjection(src, inject_at);
    return true;
}

template <class Policy>
void
VctEngine<Policy>::workloadWake(long long term, long long at,
                                long long now)
{
    if (term < 0 || term >= lay_.num_terms)
        throw std::invalid_argument(
            "WorkloadPort::wakeAt: terminal out of range");
    if (at <= now)
        at = now + 1;
    wl_next_[term] = stamp(at);
    genPush(static_cast<std::int32_t>(term), at, now);
}

/**
 * Fire due wake timers (closed-loop replacement for the open-loop
 * processGeneration, same slot in the cycle: after releases, before
 * injection - so a message sent from onWake can inject this very
 * cycle).  Entries whose timer moved are re-pushed toward the new due
 * cycle; entries whose timer fired or was superseded are stale and
 * dropped.  wakeAt() never pushes into the slot being drained (the
 * re-arm gap is clamped to [1, kGenWheel-1]).
 */
template <class Policy>
void
VctEngine<Policy>::processWorkloadWakes(long long now)
{
    const std::size_t slot = now % kGenWheel;
    while (!gen_wheel_.empty(slot)) {
        const std::int32_t t = gen_wheel_.pop(slot);
        const long long due = wl_next_[t];
        if (due < now)
            continue;  // stale: fired already or re-armed earlier
        if (due > now) {
            genPush(t, due, now);
            continue;
        }
        wl_next_[t] = -1;
        PortImpl port(this, now, /*inject_at=*/now);
        wl_->onWake(t, now, port, wl_stats_);
    }
}

/**
 * End-of-cycle global step, run in a cycle where a callback raised
 * signalGlobal: the workload's cross-terminal logic.  Sends and wakes
 * issued here take effect next cycle.
 */
template <class Policy>
void
VctEngine<Policy>::workloadGlobalStep(long long now)
{
    wl_signal_ = false;
    PortImpl port(this, now, /*inject_at=*/now + 1);
    wl_->onGlobalStep(now, port, wl_stats_);
}

/**
 * Dequeue the head packet of input VC @p gi and schedule the buffer
 * slot release at the feeder (the slot drains when the tail leaves).
 * Shared by the forward/eject commit and the TTL drop path; the caller
 * owns the returned packet id.
 */
template <class Policy>
std::int32_t
VctEngine<Policy>::dequeueHead(std::int64_t gi, long long now)
{
    const int V = cfg_.vcs;
    std::int64_t iport = gi / V;
    const std::int32_t id = vc_head_[gi];
    vc_head_[gi] = pkt(id).next;
    --q_count_[gi];
    // The buffer slot at this switch drains when the tail leaves.
    scheduleRelease(now + cfg_.pkt_phits, lay_.feeder_out[iport],
                    static_cast<int>(gi % V));
    return id;
}

/**
 * Drop the head packet of @p gi: it has been route-less longer than
 * route_ttl allows.  The packet evaporates from the buffer (its slot
 * still drains tail-timed like a forward, keeping credit conservation
 * exact) and is counted in dropped - never in delivered.
 */
template <class Policy>
void
VctEngine<Policy>::dropHead(std::int64_t gi, long long now)
{
    free_pkts_.push_back(dequeueHead(gi, now));
    ++dropped_;
    if constexpr (kGuards)
        last_progress_ = now;
    if (q_count_[gi] > 0) {
        const long long ready = pkt(vc_head_[gi]).ready;
        wakePush(gi, std::max<long long>(ready, now + 1), now);
    }
}

/**
 * Commit a scan-phase winner: dequeue from @p gi and either eject or
 * forward through @p o_gid.  Returns false when the move was blocked
 * (input port already taken this cycle, or no output VC credit).
 */
template <class Policy>
bool
VctEngine<Policy>::commitCandidate(std::int64_t gi, std::int64_t o_gid,
                                   long long now)
{
    const int V = cfg_.vcs;
    std::int64_t iport = gi / V;
    if (in_busy_[iport] > now)
        return false;  // another VC of this port won already
    const std::int32_t id = vc_head_[gi];
    Pkt &p = pkt(id);

    const std::int64_t peer = peerIvcBase(o_gid);
    int out_vc = -1;
    if (peer >= 0) {
        out_vc = policy_.chooseOutVc(view(now), o_gid, p, rng_);
        if (out_vc < 0) {
            ++perf_.credit_stalls;
            return false;
        }
    }

    dequeueHead(gi, now);

    in_busy_[iport] = static_cast<std::int32_t>(now + cfg_.pkt_phits);
    out_busy_[o_gid] = static_cast<std::int32_t>(now + cfg_.pkt_phits);
    ++perf_.forwards;

    if (peer < 0) {
        // Ejection: delivered when the tail arrives.
        long long done = now + cfg_.link_latency + cfg_.pkt_phits;
        if (now >= win_start_ && now < win_end_) {
            ++delivered_;
            delivered_phits_ += cfg_.pkt_phits;
            long long lat = done - p.gen;
            lat_sum_ += static_cast<double>(lat);
            lat_hist_.add(lat);
            hop_sum_ += policy_.hopsOf(p);
        }
        ++ejected_all_;
        recordBin(now);
        if (wl_ != nullptr) {
            // The terminal sits at this output port; its in- and
            // out-port share the gid, and feeder_out at a terminal
            // in-port encodes -(terminal + 1).
            const long long dst =
                -static_cast<long long>(lay_.feeder_out[o_gid]) - 1;
            if (now >= win_start_ && now < win_end_)
                ++wl_stats_.window_packets;
            const WlMeta &m = wl_meta_.at(id);
            PortImpl port(this, now, /*inject_at=*/now + 1);
            wl_->onDeliver(dst, m.src, m.tag, p.gen, done, now, port,
                           wl_stats_);
        }
        free_pkts_.push_back(id);
        if constexpr (kGuards) {
            ++ejected_;
            last_progress_ = now;
        }
    } else {
        if constexpr (kGuards) {
            check_.countChecks();
            if (out_credits_[o_gid * V + out_vc] <= 0)
                check_.report("credit-negative", now,
                              lay_.port_owner[o_gid], out_vc,
                              "forwarded without credit on out port " +
                                  std::to_string(o_gid));
        }
        --out_credits_[o_gid * V + out_vc];
        policy_.onForward(p);
        enqueueInput(peer + out_vc, id,
                     static_cast<std::int32_t>(now + cfg_.link_latency),
                     now);
        if constexpr (kGuards)
            last_progress_ = now;
    }
    return true;
}

// ======================================================================
// arbitration (wake-wheel scheduler)
// ======================================================================

template <class Policy>
void
VctEngine<Policy>::arbitrate(long long now)
{
    const int V = cfg_.vcs;
    const std::size_t slot = now % wheel_size_;
    if (wake_wheel_.empty(slot))
        return;
    touched_outs_.clear();
    scanned_ivcs_.clear();
    const CongestionView cv = view(now);

    // Drain the slot into due_, in wake order, and mark its VCs off the
    // wheel.  Draining first is safe: the scan re-pushes only the VC it
    // visits, always to now + 1 or later, so the array is exactly what
    // popping entry by entry would have seen.
    due_.clear();
    wake_wheel_.drainInto(slot, due_);
    for (std::int32_t gi : due_)
        wake_queued_[gi] = 0;

    // Scan phase over the due VCs.  Two prefetch stages hide the
    // dependent misses of a visit: the FIFO head id and in-port busy
    // time kPrefetchFar visits ahead, then the head packet (its ready
    // time included) and switch id kPrefetchNear ahead, once that head
    // id is cached.  Distances measured on the Fig 8 pair under random
    // pairing; (8, 4) and (20, 10) timed the same within noise.
    constexpr std::size_t kPrefetchFar = 12, kPrefetchNear = 6;
    const std::size_t n_due = due_.size();
    for (std::size_t i = 0; i < n_due; ++i) {
        if (i + kPrefetchFar < n_due) {
            const std::int64_t g = due_[i + kPrefetchFar];
            __builtin_prefetch(&vc_head_[g]);
            __builtin_prefetch(&in_busy_[g / V]);
        }
        if (i + kPrefetchNear < n_due) {
            const std::int64_t g = due_[i + kPrefetchNear];
            if (q_count_[g] != 0) {
                __builtin_prefetch(&pkt(vc_head_[g]));
                __builtin_prefetch(&lay_.port_owner[g / V]);
            }
        }
        const std::int64_t gi = due_[i];
        if (q_count_[gi] == 0)
            continue;
        ++perf_.switch_scans;
        std::int64_t iport = gi / V;
        Pkt &p = pkt(vc_head_[gi]);
        const long long ready = p.ready;
        const long long busy = in_busy_[iport];
        if (ready > now || busy > now) {
            // Not actionable yet: sleep until the earliest cycle it
            // could be (this is the scheduling win over rescanning).
            ++perf_.scan_not_ready;
            wakePush(gi,
                     std::max<long long>(std::max(ready, busy), now + 1),
                     now);
            continue;
        }
        int s = lay_.port_owner[iport];
        if constexpr (kGuards)
            guardRouteCache(s, vc_head_[gi], now);
        bool sole = false;
        int o_local = policy_.routeOut(cv, s, p, rng_, sole);
        if (o_local < 0) {
            // No route from here (runtime fault): retry next cycle
            // against the (possibly repaired) tables, or drop once the
            // packet is older than the TTL.  route_ttl == 0 preserves
            // the historical park-forever behavior.
            ++route_retries_;
            ++perf_.scan_no_route;
            p.noroute = 1;
            if (cfg_.route_ttl > 0 &&
                now - static_cast<long long>(p.gen) >= cfg_.route_ttl)
                dropHead(gi, now);
            else
                wakePush(gi, now + 1, now);
            continue;
        }
        if (p.noroute) {
            p.noroute = 0;
            ++rerouted_;
        }
        std::int64_t o_gid = lay_.iport_off[s] + o_local;
        const long long out_until = out_busy_[o_gid];
        if (out_until > now) {
            // The output is still transmitting.  With no other legal
            // port the head cannot move before it frees, so it sleeps
            // until then; with several, it re-draws next cycle.
            ++(sole ? perf_.scan_sole_busy : perf_.scan_choice_busy);
            wakePush(gi, sole ? hookCapped(out_until) : now + 1, now);
            continue;
        }
        if (lay_.out_peer_iport[o_gid] >= 0) {
            bool has_credit = false;
            int vc_lo, vc_hi;
            policy_.vcRange(p, vc_lo, vc_hi);
            for (int v = vc_lo; v < vc_hi; ++v) {
                if (out_credits_[o_gid * V + v] > 0) {
                    has_credit = true;
                    break;
                }
            }
            if (!has_credit) {
                ++perf_.credit_stalls;
                ++perf_.scan_credit_blocked;
                wakePush(gi, now + 1, now);
                continue;
            }
        }
        scanned_ivcs_.push_back(static_cast<std::int32_t>(gi));
        // Reservoir-sample among this output's candidates (random
        // arbiter, one iteration).
        if (cand_count_[o_gid]++ == 0) {
            cand_ivc_[o_gid] = static_cast<std::int32_t>(gi);
            touched_outs_.push_back(static_cast<std::int32_t>(o_gid));
        } else {
            ++perf_.arb_conflicts;
            if (rng_.uniform(cand_count_[o_gid]) == 0)
                cand_ivc_[o_gid] = static_cast<std::int32_t>(gi);
        }
    }

    // Commit phase; resetting the count leaves the output untouched
    // for the next cycle.
    for (std::int32_t o_gid : touched_outs_) {
        if (!commitCandidate(cand_ivc_[o_gid], o_gid, now))
            ++perf_.scan_commit_blocked;
        cand_count_[o_gid] = 0;
    }

    // Reschedule every scanned VC that still holds packets: losers and
    // blocked movers retry, winners sleep out their port's busy time.
    for (std::int64_t gi : scanned_ivcs_) {
        if (q_count_[gi] == 0 || wake_queued_[gi])
            continue;
        const long long busy = in_busy_[gi / V];
        const long long ready = pkt(vc_head_[gi]).ready;
        wakePush(gi,
                 std::max<long long>(std::max<long long>(ready, busy),
                                     now + 1),
                 now);
    }
}

template <class Policy>
void
VctEngine<Policy>::sampleOccupancy()
{
    for (std::uint8_t depth : q_count_)
        ++perf_.occupancy[depth];
}

// ======================================================================
// guards
// ======================================================================

template <class Policy>
void
VctEngine<Policy>::guardScanGlobal(long long now)
{
    if constexpr (kGuards) {
        const int V = cfg_.vcs;
        const int cap = cfg_.buf_packets;
        // Inter-switch credits: each out VC's credits plus the slots
        // currently held at its peer input VC must equal the buffer
        // capacity, and both must stay within bounds.
        for (std::int64_t gid = 0; gid < lay_.total_ports; ++gid) {
            const std::int64_t peer = peerIvcBase(gid);
            if (peer < 0)
                continue;
            for (int v = 0; v < V; ++v) {
                int cr = out_credits_[gid * V + v];
                check_.countChecks();
                if (cr < 0)
                    check_.report("credit-negative", now,
                                  lay_.port_owner[gid], v,
                                  "out port " + std::to_string(gid));
                else if (cr > cap)
                    check_.report("credit-overflow", now,
                                  lay_.port_owner[gid], v,
                                  "out port " + std::to_string(gid) +
                                      " credits " + std::to_string(cr) +
                                      " > cap " + std::to_string(cap));
                if (cr + slots_held_[peer + v] != cap)
                    check_.report(
                        "credit-conservation", now, lay_.port_owner[gid],
                        v,
                        "out port " + std::to_string(gid) +
                            ": credits " + std::to_string(cr) +
                            " + held " +
                            std::to_string(slots_held_[peer + v]) +
                            " != cap " + std::to_string(cap));
            }
        }
        // Injection credits against the terminal in-port VCs; a
        // terminal still behind its activation barrier must never
        // hold a queued packet.
        for (long long t = 0; t < lay_.num_terms; ++t) {
            std::int64_t iport = lay_.term_iport[t];
            int sw = lay_.term_switch[t];
            check_.countChecks();
            if (t >= active_terms_ && sq_count_[t] != 0)
                check_.report("inactive-terminal-queued", now, sw, -1,
                              "terminal " + std::to_string(t) +
                                  " holds " +
                                  std::to_string(sq_count_[t]) +
                                  " packets before activation");
            for (int v = 0; v < V; ++v) {
                int cr = inj_credits_[t * V + v];
                check_.countChecks();
                if (cr < 0 || cr > cap)
                    check_.report("inj-credit-bounds", now, sw, v,
                                  "terminal " + std::to_string(t));
                if (cr + slots_held_[iport * V + v] != cap)
                    check_.report("inj-credit-conservation", now, sw, v,
                                  "terminal " + std::to_string(t));
            }
        }
        // VC occupancy bounds, FIFO links, and no lost wakeup: a VC
        // holding packets but on no wake slot would never be arbitrated
        // again, and one whose wake flag disagrees with the wheel would
        // be skipped by (or pushed twice by) its next wakePush.
        std::vector<std::uint8_t> on_wheel(q_count_.size(), 0);
        for (long long slot = 0; slot < wheel_size_; ++slot)
            wake_wheel_.forEach(slot, [&](std::int32_t gi) {
                on_wheel[gi] = std::min(on_wheel[gi] + 1, 2);
            });
        for (std::int64_t ivc = 0;
             ivc < static_cast<std::int64_t>(q_count_.size()); ++ivc) {
            check_.countChecks(4);
            // Walking next from the head must visit exactly q_count_
            // arena packets and end at the tail; a stale id shows here.
            std::int32_t id = q_count_[ivc] > 0 ? vc_head_[ivc] : -1;
            std::int32_t last = -1;
            int walked = 0;
            while (id >= 0 && id < arena_.size() && walked <= cap) {
                last = id;
                ++walked;
                id = pkt(id).next;
            }
            if (id >= 0 || walked != q_count_[ivc] ||
                (walked > 0 && last != vc_tail_[ivc]))
                check_.report(
                    "vc-fifo", now, lay_.port_owner[ivc / V],
                    static_cast<int>(ivc % V),
                    "FIFO walk found " + std::to_string(walked) +
                        " packets for depth " +
                        std::to_string(q_count_[ivc]));
            if (q_count_[ivc] > cap)
                check_.report(
                    "vc-occupancy", now,
                    lay_.port_owner[ivc / V], static_cast<int>(ivc % V),
                    "queue depth " + std::to_string(q_count_[ivc]) +
                        " > cap " + std::to_string(cap));
            if (q_count_[ivc] > 0 && on_wheel[ivc] == 0)
                check_.report(
                    "lost-wakeup", now, lay_.port_owner[ivc / V],
                    static_cast<int>(ivc % V),
                    "VC holds " + std::to_string(q_count_[ivc]) +
                        " packets but sits on no wake slot");
            else if (on_wheel[ivc] != wake_queued_[ivc])
                check_.report(
                    "lost-wakeup", now, lay_.port_owner[ivc / V],
                    static_cast<int>(ivc % V),
                    "wake flag " + std::to_string(wake_queued_[ivc]) +
                        " but the VC sits on " +
                        std::to_string(on_wheel[ivc]) +
                        (on_wheel[ivc] > 1 ? "+" : "") + " wake slots");
        }
    }
}

template <class Policy>
void
VctEngine<Policy>::guardConservationGlobal(long long now)
{
    if constexpr (kGuards) {
        const long long in_flight = inFlightNow();
        check_.countChecks(3);
        // Packet conservation: every packet entered into the network
        // is still in flight (pool slot in use), was ejected, or was
        // TTL-dropped after losing its route - nothing leaks.
        if (injected_ != in_flight + ejected_ + dropped_)
            check_.report("packet-conservation", now, -1, -1,
                          "injected " + std::to_string(injected_) +
                              " != in-flight " +
                              std::to_string(in_flight) + " + ejected " +
                              std::to_string(ejected_) + " + dropped " +
                              std::to_string(dropped_));
        // Source-queue accounting: generated packets are queued,
        // injected, suppressed or unroutable - nothing vanishes.
        if (generated_ != queued_ + injected_ + suppressed_ + unroutable_)
            check_.report(
                "generation-accounting", now, -1, -1,
                "generated " + std::to_string(generated_) +
                    " != queued " + std::to_string(queued_) +
                    " + injected " + std::to_string(injected_) +
                    " + suppressed " + std::to_string(suppressed_) +
                    " + unroutable " + std::to_string(unroutable_));
        // Arena bound: the free list is drained before the arena grows
        // and every live packet sits in one input-VC FIFO of at most
        // buf_packets, so the arena never outgrows the buffer slots.
        const std::int64_t slots =
            lay_.total_ports * cfg_.vcs * cfg_.buf_packets;
        if (arena_.size() > slots)
            check_.report("pkt-arena-bound", now, -1, -1,
                          "arena holds " + std::to_string(arena_.size()) +
                              " packets > " + std::to_string(slots) +
                              " buffer slots");
        // No-progress watchdog: packets in flight but nothing moved
        // for far longer than any legal busy/credit stall can last.
        long long watchdog = 256 + 64LL * cfg_.pkt_phits;
        check_.countChecks();
        if (in_flight > 0 && now - last_progress_ > watchdog)
            check_.report(
                "no-progress", now, -1, -1,
                std::to_string(in_flight) +
                    " packets in flight, none moved since cycle " +
                    std::to_string(last_progress_));
    }
}

/**
 * Packet conservation every cycle, the full credit/occupancy scan every
 * 256th.  Runs at the end of the cycle, after the workload's global
 * step.
 */
template <class Policy>
void
VctEngine<Policy>::guardCycle(long long now)
{
    if constexpr (kGuards) {
        guardConservationGlobal(now);
        if ((now & 255) == 0)
            guardScanGlobal(now);
    }
}

// ======================================================================
// run loop
// ======================================================================

template <class Policy>
void
VctEngine<Policy>::runCycles(long long total)
{
    // Stagger draws in terminal order (open-loop only; a workload
    // drives all generation itself).
    for (long long t = 0; wl_ == nullptr && t < active_terms_; ++t) {
        long long start = static_cast<long long>(
            rng_.uniform(static_cast<std::uint64_t>(cfg_.pkt_phits)));
        next_gen_[t] = static_cast<std::int32_t>(start);
        gen_wheel_.push(start % kGenWheel, static_cast<std::int32_t>(t));
    }

    // Phase timers: one clock read at the start of each cycle and one
    // at the end of each phase, each lap charged to the phase it ends.
    using Clock = std::chrono::steady_clock;
    Clock::time_point t;
    auto lap = [&t](double &phase) {
        const Clock::time_point u = Clock::now();
        phase += std::chrono::duration<double>(u - t).count();
        t = u;
    };
    for (long long now = 0; now < total; ++now) {
        t = Clock::now();
        if (hookDue(now)) {
            runHook(now);
            lap(perf_.hook_seconds);
        }
        processReleases(now);
        lap(perf_.release_seconds);
        if (wl_ != nullptr)
            processWorkloadWakes(now);
        else
            processGeneration(now);
        lap(perf_.generate_seconds);
        processInjection(now);
        lap(perf_.inject_seconds);
        arbitrate(now);
        lap(perf_.arbitrate_seconds);
        if ((now & 255) == 0) {
            sampleOccupancy();
            t = Clock::now();
        }
        if (wl_signal_) {
            workloadGlobalStep(now);
            lap(perf_.global_step_seconds);
        }
        if constexpr (kGuards)
            guardCycle(now);
    }
}

template <class Policy>
SimResult
VctEngine<Policy>::collectResult(double wall_seconds)
{
    SimResult r;
    r.offered = cfg_.load;
    r.telemetry_bin = cfg_.telemetry_bin;
    if (cfg_.telemetry_bin > 0) {
        r.delivered_bins = bins_;
        r.delivered_bins.resize(
            static_cast<std::size_t>(
                (cfg_.warmup + cfg_.measure + cfg_.telemetry_bin - 1) /
                cfg_.telemetry_bin),
            0);
    }
    r.generated_packets = generated_;
    r.delivered_packets = delivered_;
    r.suppressed_packets = suppressed_;
    r.unroutable_packets = unroutable_;
    r.ejected_packets = ejected_all_;
    r.dropped_packets = dropped_;
    r.rerouted_packets = rerouted_;
    r.route_retries = route_retries_;
    r.in_flight_packets = inFlightNow();
    for (long long t = 0; t < lay_.num_terms; ++t)
        r.queued_packets_end += sq_count_[t];
    r.accepted = static_cast<double>(delivered_phits_) /
                 (static_cast<double>(cfg_.measure) *
                  static_cast<double>(lay_.num_terms));
    if (delivered_ > 0) {
        r.avg_latency = lat_sum_ / static_cast<double>(delivered_);
        r.avg_hops = hop_sum_ / static_cast<double>(delivered_);
        r.p50_latency = lat_hist_.quantile(0.50);
        r.p99_latency = lat_hist_.quantile(0.99);
    }
    r.perf = perf_;
    r.perf.cycles = cfg_.warmup + cfg_.measure;
    r.perf.wall_seconds = wall_seconds;
    r.perf.cycles_per_sec =
        wall_seconds > 0.0
            ? static_cast<double>(r.perf.cycles) / wall_seconds
            : 0.0;

    if (wl_ != nullptr) {
        const WorkloadStats &ws = wl_stats_;
        const WorkloadAccount acc = wl_->account();
        WorkloadMetrics &w = r.workload;
        w.active = true;
        w.name = wl_->name();
        w.messages_sent = ws.messages_sent;
        w.requests_sent = ws.requests_sent;
        w.responses_sent = ws.responses_sent;
        w.flows_completed = ws.flows_done;
        w.rpcs_completed = ws.rpcs_done;
        w.coflow_phases = ws.coflow_phases_all;
        w.goodput = static_cast<double>(ws.window_packets) *
                    cfg_.pkt_phits /
                    (static_cast<double>(cfg_.measure) *
                     static_cast<double>(lay_.num_terms));
        if (ws.fct_hist.count() > 0) {
            w.fct_mean =
                ws.fct_sum / static_cast<double>(ws.fct_hist.count());
            w.fct_p50 = ws.fct_hist.quantile(0.50);
            w.fct_p99 = ws.fct_hist.quantile(0.99);
            w.fct_max = static_cast<double>(ws.fct_hist.maxSample());
        }
        if (ws.rpc_hist.count() > 0) {
            w.rpc_mean =
                ws.rpc_sum / static_cast<double>(ws.rpc_hist.count());
            w.rpc_p50 = ws.rpc_hist.quantile(0.50);
            w.rpc_p99 = ws.rpc_hist.quantile(0.99);
            w.rpc_p999 = ws.rpc_hist.quantile(0.999);
            w.rpc_max = static_cast<double>(ws.rpc_hist.maxSample());
        }
        if (!ws.ccts.empty()) {
            double sum = 0.0, mx = 0.0;
            for (double v : ws.ccts) {
                sum += v;
                mx = std::max(mx, v);
            }
            w.cct_mean = sum / static_cast<double>(ws.ccts.size());
            w.cct_max = mx;
        }
        w.ccts = ws.ccts;
        w.msgs_created = acc.msgs_created;
        w.msgs_delivered = acc.msgs_delivered;
        w.pkts_created = acc.pkts_created;
        w.pkts_pending = acc.pkts_pending;
        w.pkts_received = acc.pkts_received;
        // Message conservation: every created packet is still buffered
        // in the workload, queued at a source, in flight, or received.
        w.conservation_residual =
            acc.pkts_created -
            (acc.pkts_pending + r.queued_packets_end +
             r.in_flight_packets + acc.pkts_received);
        w.eject_mismatch = r.ejected_packets - acc.pkts_received;
        if constexpr (kGuards) {
            check_.countChecks(2);
            if (w.conservation_residual != 0)
                check_.report(
                    "workload-conservation", win_end_, -1, -1,
                    "residual " +
                        std::to_string(w.conservation_residual) +
                        " (created " + std::to_string(acc.pkts_created) +
                        ", pending " + std::to_string(acc.pkts_pending) +
                        ", queued " +
                        std::to_string(r.queued_packets_end) +
                        ", in-flight " +
                        std::to_string(r.in_flight_packets) +
                        ", received " +
                        std::to_string(acc.pkts_received) + ")");
            if (w.eject_mismatch != 0)
                check_.report("workload-eject-accounting", win_end_, -1,
                              -1,
                              "ejected " +
                                  std::to_string(r.ejected_packets) +
                                  " != received " +
                                  std::to_string(acc.pkts_received));
        }
    }
    return r;
}

template <class Policy>
SimResult
VctEngine<Policy>::run()
{
    const long long total = cfg_.warmup + cfg_.measure;
    win_start_ = cfg_.warmup;
    win_end_ = total;

    auto t0 = std::chrono::steady_clock::now();
    // The traffic pattern is initialized from the base seed, apart
    // from the engine's stream.
    Rng traffic_rng(cfg_.seed);
    traffic_.init(lay_.num_terms, traffic_rng);
    if (active_terms_ < lay_.num_terms) {
        if (wl_ != nullptr)
            throw std::invalid_argument(
                "VctEngine: terminal gating is open-loop only "
                "(closed-loop workloads schedule every terminal)");
        traffic_.setActiveTerminals(active_terms_);
    }

    if (wl_ != nullptr) {
        // The workload draws from its own deriveSeed stream and every
        // terminal gets an initial wake at cycle 0.
        wl_->init(lay_.num_terms, win_start_, win_end_,
                  deriveSeed(cfg_.seed, 0x574C4F41ULL, 0));
        for (long long t = 0; t < lay_.num_terms; ++t) {
            wl_next_[t] = 0;
            gen_wheel_.push(0, static_cast<std::int32_t>(t));
        }
    }

    runCycles(total);

    auto t1 = std::chrono::steady_clock::now();
    return collectResult(
        std::chrono::duration<double>(t1 - t0).count());
}

} // namespace rfc

#endif // RFC_SIM_CORE_ENGINE_HPP
