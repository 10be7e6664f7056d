/**
 * @file
 * rfc_perf: one pass of one benchmark workload, in one process.
 *
 *   rfc_perf --workload NAME --seed S [--trace FILE] [--quick]
 *
 * A pass builds the workload's two networks (a commodity fat-tree and a
 * random folded Clos of the same shape), makes its measured calls,
 * checks every output, and prints one JSON document on stdout: host
 * time spent in set-up calls and in measured calls, peak RSS, per-layer
 * work counts, the operation/failure tally, and a 64-bit digest of
 * every deterministic output.
 *
 * Layers are timed from outside, around calls to their public
 * functions (buildCft/buildRfc, UpDownOracle, ForwardingTables,
 * FabricLayout::fromFoldedClos, the Simulator constructor and run(),
 * makeDemandMatrix, buildClosFlowProblem, solveMaxConcurrentFlow,
 * ecmpFluid, queueLatencySweep); nothing inside the library is
 * instrumented.  With --trace each timed call is also kept as a span
 * (workload -> network -> layer call, with span and parent ids) and the
 * spans are written at exit as Chrome trace-event JSON, which Perfetto
 * and chrome://tracing open.
 *
 * Everything runs on one thread with SimConfig defaults, engine mode
 * included, so the numbers describe the library as users run it.
 * --quick shrinks every workload to radix 8 (about a second each) for
 * the build-tree smoke test.  bench/perf/run.py builds this binary,
 * repeats passes in fresh processes and summarizes them.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "clos/fat_tree.hpp"
#include "clos/rfc.hpp"
#include "exp/experiment.hpp"
#include "flow/demand.hpp"
#include "flow/paths.hpp"
#include "flow/solver.hpp"
#include "queue/latency.hpp"
#include "queue/queue_model.hpp"
#include "routing/tables.hpp"
#include "routing/updown.hpp"
#include "sim/core/layout.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/json.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "workload/closed_loop.hpp"

using namespace rfc;

namespace {

using Clock = std::chrono::steady_clock;

/** Which end-to-end sum a timed call belongs to. */
enum class Phase
{
    kGroup,  //!< grouping span (workload, network): no sum
    kSetup,  //!< built before the measured calls -> setup_s
    kRun,    //!< a measured call -> run_s
    kAside,  //!< traced-only extra call, outside both sums
};

const char *
phaseName(Phase ph)
{
    switch (ph) {
    case Phase::kSetup:
        return "setup";
    case Phase::kRun:
        return "run";
    case Phase::kAside:
        return "aside";
    default:
        return "group";
    }
}

/** FNV-1a over the bytes of every deterministic output, in order. */
class Digest
{
  public:
    void
    add(std::int64_t v)
    {
        bytes(&v, sizeof v);
    }
    void
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        bytes(&bits, sizeof bits);
    }
    std::uint64_t value() const { return h_; }

  private:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * State of one pass: the end-to-end time sums, the span log, the
 * digest, the per-layer counts and the operation tally.
 */
class Pass
{
  public:
    explicit Pass(bool trace) : trace_(trace) {}

    bool tracing() const { return trace_; }

    /**
     * Time one layer call.  Its host time goes to setup_s or run_s by
     * @p ph; under --trace it is also logged as a span under the
     * innermost open group.
     */
    template <class F>
    auto
    call(const char *layer, Phase ph, const std::string &net, F &&f)
    {
        const auto t0 = Clock::now();
        auto out = f();
        const auto t1 = Clock::now();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        if (ph == Phase::kSetup)
            setup_s += s;
        else if (ph == Phase::kRun)
            run_s += s;
        if (trace_)
            fill(reserve(), layer, ph, net, t0, t1);
        return out;
    }

    /** A grouping span (workload or network) open for its lifetime. */
    class Group
    {
      public:
        Group(Pass &p, std::string name, std::string net)
            : p_(p), name_(std::move(name)), net_(std::move(net)),
              t0_(Clock::now())
        {
            if (p_.trace_)
                p_.open_.push_back(p_.reserve());
        }
        ~Group()
        {
            if (!p_.trace_)
                return;
            const int id = p_.open_.back();
            p_.open_.pop_back();
            p_.fill(id, name_.c_str(), Phase::kGroup, net_, t0_,
                    Clock::now());
        }
        Group(const Group &) = delete;
        Group &operator=(const Group &) = delete;

      private:
        Pass &p_;
        std::string name_, net_;
        Clock::time_point t0_;
    };

    /**
     * Count one checked operation: it fails when any named condition
     * in @p checks is false.
     */
    void
    op(const std::string &what,
       std::initializer_list<std::pair<const char *, bool>> checks)
    {
        ++ops_total;
        std::string bad;
        for (const auto &[name, ok] : checks)
            if (!ok)
                bad += (bad.empty() ? "" : ", ") + std::string(name);
        if (!bad.empty()) {
            ++ops_failed;
            failures.push_back(what + ": " + bad);
        }
    }

    void count(const std::string &name, double v) { counts[name] += v; }

    /** Chrome trace-event JSON of every span, in start order. */
    void
    writeTrace(std::ostream &os) const
    {
        JsonWriter w(os, 0);
        w.beginObject();
        w.kv("displayTimeUnit", "ms");
        w.key("traceEvents");
        w.beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.kv("name", s.name);
            w.kv("cat", phaseName(s.phase));
            w.kv("ph", "X");
            w.kv("ts", s.ts_us);
            w.kv("dur", s.dur_us);
            w.kv("pid", static_cast<std::int64_t>(1));
            w.kv("tid", static_cast<std::int64_t>(1));
            w.key("args");
            w.beginObject();
            w.kv("id", static_cast<std::int64_t>(i + 1));
            w.kv("parent", static_cast<std::int64_t>(s.parent));
            w.kv("net", s.net);
            w.kv("phase", phaseName(s.phase));
            w.kv("peak_rss_mb", s.peak_rss_mb);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    double setup_s = 0.0;
    double run_s = 0.0;
    Digest digest;
    std::map<std::string, double> counts;
    long long ops_total = 0;
    long long ops_failed = 0;
    std::vector<std::string> failures;

  private:
    struct Span
    {
        std::string name;
        std::string net;
        Phase phase = Phase::kGroup;
        int parent = 0;  //!< 1-based span id, 0 = root
        double ts_us = 0.0;
        double dur_us = 0.0;
        double peak_rss_mb = 0.0;  //!< process high-water mark at close
    };

    /** Append a placeholder span under the open group; 1-based id. */
    int
    reserve()
    {
        Span s;
        s.parent = open_.empty() ? 0 : open_.back();
        spans_.push_back(std::move(s));
        return static_cast<int>(spans_.size());
    }

    void
    fill(int id, const char *name, Phase ph, const std::string &net,
         Clock::time_point t0, Clock::time_point t1)
    {
        Span &s = spans_[static_cast<std::size_t>(id - 1)];
        s.name = name;
        s.net = net;
        s.phase = ph;
        s.peak_rss_mb =
            static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0);
        s.ts_us =
            std::chrono::duration<double, std::micro>(t0 - origin_).count();
        s.dur_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    }

    bool trace_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Leaves of the l-level commodity fat-tree of radix R: 2 (R/2)^(l-1). */
int
cftLeaves(int radix, int levels)
{
    int n = 2;
    for (int i = 1; i < levels; ++i)
        n *= radix / 2;
    return n;
}

/** Wire one network of a pair: the CFT, or the RFC with @p rfc_n1 leaves. */
FoldedClos
wire(Pass &p, const std::string &net, int radix, int cft_levels,
     int rfc_n1, std::uint64_t seed)
{
    if (net == "cft")
        return p.call("clos.wiring", Phase::kSetup, net,
                      [&] { return buildCft(radix, cft_levels); });
    Rng rng(seed);
    RfcBuildResult b = p.call("clos.wiring", Phase::kSetup, net, [&] {
        return buildRfc(radix, 3, rfc_n1, rng);
    });
    p.op("clos.wiring rfc", {{"routable", b.routable}});
    p.count("clos.rfc_attempts", b.attempts);
    p.digest.add(static_cast<std::int64_t>(b.attempts));
    return std::move(b.topology);
}

UpDownOracle
route(Pass &p, const std::string &net, const FoldedClos &fc)
{
    UpDownOracle oracle = p.call("routing.oracle", Phase::kSetup, net,
                                 [&] { return UpDownOracle(fc); });
    p.count("routing.oracle_bytes",
            static_cast<double>(oracle.memoryBytes()));
    p.digest.add(static_cast<std::int64_t>(fc.numTerminals()));
    p.digest.add(static_cast<std::int64_t>(fc.numWires()));
    p.digest.add(static_cast<std::int64_t>(oracle.memoryBytes()));
    return oracle;
}

void
digestSim(Digest &d, const SimResult &r)
{
    for (double v : {r.accepted, r.avg_latency, r.p50_latency,
                     r.p99_latency, r.avg_hops})
        d.add(v);
    for (long long v :
         {r.delivered_packets, r.generated_packets, r.suppressed_packets,
          r.perf.cycles, r.perf.switch_scans, r.perf.arb_conflicts,
          r.perf.credit_stalls, r.perf.forwards})
        d.add(static_cast<std::int64_t>(v));
    for (long long v : r.perf.occupancy)
        d.add(static_cast<std::int64_t>(v));
    const WorkloadMetrics &w = r.workload;
    for (long long v : {w.messages_sent, w.rpcs_completed, w.msgs_delivered,
                        w.pkts_received})
        d.add(static_cast<std::int64_t>(v));
    for (double v : {w.goodput, w.rpc_mean, w.rpc_p99, w.fct_mean})
        d.add(v);
}

/** One VCT trial: open-loop traffic pattern or closed-loop workload. */
struct Trial
{
    const char *name;  //!< traffic pattern or WorkloadSpec kind
    bool closed;
    double load;
};

/**
 * The three VCT workloads: the Fig 8 pair (CFT3 vs the equal-resources
 * RFC3, 11,664 terminals each at radix 36) under one traffic family.
 */
void
runVct(Pass &p, const std::string &workload, bool quick, std::uint64_t seed)
{
    const int radix = quick ? 8 : 36;
    // Cycle counts keep one pass within a few seconds on one core, so a
    // run of a few tens of seconds holds several passes.
    std::vector<Trial> trials;
    long long warmup = 200, measure = 300;
    if (workload == "fig8_uniform") {
        trials = {{"uniform", false, 0.3}, {"uniform", false, 0.5}};
    } else if (workload == "fig8_pairing_saturated") {
        // Tree saturation needs ~500 cycles to build up; by cycle 800
        // credit stalls reach a quarter of the forwards.
        trials = {{"random-pairing", false, 1.0}};
        warmup = 500;
        measure = 300;
    } else {
        trials = {{"rpc", true, 1.0}, {"incast", true, 1.0}};
        measure = 400;
    }
    if (quick) {
        warmup = 200;
        measure = 600;
    }

    for (const std::string net : {"cft", "rfc"}) {
        Pass::Group group(p, net, net);
        FoldedClos fc = wire(p, net, radix, 3, cftLeaves(radix, 3),
                             deriveSeed(seed, 1, 0));
        UpDownOracle oracle = route(p, net, fc);
        // The Simulator builds this layout internally; the traced-only
        // standalone call attributes that share of sim.ctor.
        if (p.tracing())
            p.call("sim.layout", Phase::kAside, net,
                   [&] { return FabricLayout::fromFoldedClos(fc); });

        for (std::size_t ti = 0; ti < trials.size(); ++ti) {
            const Trial &t = trials[ti];
            SimConfig cfg;
            cfg.warmup = warmup;
            cfg.measure = measure;
            cfg.load = t.load;
            cfg.seed = deriveSeed(seed, 2 + ti, net == "cft" ? 0 : 1);
            auto traffic = makeTraffic(t.closed ? "uniform" : t.name);
            std::unique_ptr<Workload> wl;
            if (t.closed) {
                WorkloadSpec spec;
                spec.kind = t.name;
                wl = makeWorkload(spec, t.load);
            }
            auto sim = p.call("sim.ctor", Phase::kSetup, net, [&] {
                return std::make_unique<Simulator>(fc, oracle, *traffic,
                                                   cfg);
            });
            if (wl)
                sim->attachWorkload(*wl);
            const SimResult r = p.call("engine.run", Phase::kRun, net,
                                       [&] { return sim->run(); });

            char what[96];
            std::snprintf(what, sizeof what, "engine.run %s %s@%.2f",
                          net.c_str(), t.name, t.load);
            const WorkloadMetrics &w = r.workload;
            if (t.closed)
                p.op(what, {{"conservation", conservationGap(r) == 0},
                            {"delivers", r.delivered_packets > 0},
                            {"workload conservation",
                             w.conservation_residual == 0},
                            {"eject accounting", w.eject_mismatch == 0},
                            {"rpcs complete", w.rpcs_completed > 0}});
            else if (t.load < 1.0)
                p.op(what, {{"conservation", conservationGap(r) == 0},
                            {"delivers", r.delivered_packets > 0},
                            {"accepted within 0.02 of offered",
                             std::abs(r.accepted - r.offered) <= 0.02}});
            else
                p.op(what, {{"conservation", conservationGap(r) == 0},
                            {"delivers", r.delivered_packets > 0},
                            {"saturates", r.accepted < r.offered}});

            digestSim(p.digest, r);
            p.count("engine.cycles", static_cast<double>(r.perf.cycles));
            p.count("engine.forwards", static_cast<double>(r.perf.forwards));
            p.count("engine.switch_scans",
                    static_cast<double>(r.perf.switch_scans));
            p.count("engine.arb_conflicts",
                    static_cast<double>(r.perf.arb_conflicts));
            p.count("engine.credit_stalls",
                    static_cast<double>(r.perf.credit_stalls));
            p.count("workload.msgs_delivered",
                    static_cast<double>(w.msgs_delivered));
            p.count("workload.rpcs_completed",
                    static_cast<double>(w.rpcs_completed));
        }
    }
}

/**
 * Check ForwardingTables::ports() against the oracle's minimal up or
 * down choice set (mapped to port numbers) on seeded (switch, leaf)
 * samples.
 */
bool
tablesMatchOracle(const FoldedClos &fc, const UpDownOracle &oracle,
                  const ForwardingTables &tables, std::uint64_t seed,
                  int samples)
{
    Rng rng(seed);
    std::vector<int> choices;
    std::vector<std::uint16_t> want, got;
    for (int i = 0; i < samples; ++i) {
        const int sw = static_cast<int>(
            rng.uniform(static_cast<std::uint64_t>(fc.numSwitches())));
        const int dest = static_cast<int>(
            rng.uniform(static_cast<std::uint64_t>(fc.numLeaves())));
        want.clear();
        if (sw != dest) {
            const int need = oracle.minUps(sw, dest);
            const int n_up = static_cast<int>(fc.up(sw).size());
            if (need == 0) {
                oracle.downChoices(fc, sw, dest, choices);
                for (int c : choices)
                    want.push_back(static_cast<std::uint16_t>(n_up + c));
            } else if (need > 0) {
                oracle.upChoices(fc, sw, dest, choices);
                for (int c : choices)
                    want.push_back(static_cast<std::uint16_t>(c));
            }
        }
        auto ports = tables.ports(sw, dest);
        got.assign(ports.begin(), ports.end());
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        if (want != got)
            return false;
    }
    return true;
}

/**
 * The Fig 10 shape (CFT4 vs the largest routable RFC3) through the
 * build chain and the flow and queue tiers; no VCT engine.
 */
void
runFig10(Pass &p, bool quick, std::uint64_t seed)
{
    const int radix = quick ? 8 : 20;
    const int rfc_n1 = rfcMaxLeaves(radix, 3);

    for (const std::string net : {"cft", "rfc"}) {
        Pass::Group group(p, net, net);
        const std::uint64_t net_id = net == "cft" ? 0 : 1;
        FoldedClos fc = wire(p, net, radix, 4, rfc_n1,
                             deriveSeed(seed, 10, 0));
        UpDownOracle oracle = route(p, net, fc);
        {  // the flow tier does not use the tables: free them first
            const ForwardingTables tables =
                p.call("routing.tables", Phase::kSetup, net,
                       [&] { return ForwardingTables(fc, oracle); });
            p.op("routing.tables " + net,
                 {{"ports() equal the oracle's minimal choices",
                   tablesMatchOracle(fc, oracle, tables,
                                     deriveSeed(seed, 11, net_id), 4096)}});
            p.count("routing.tables_bytes",
                    static_cast<double>(tables.memoryBytes()));
            p.count("routing.tables_unique_sets",
                    static_cast<double>(tables.uniqueSets()));
            p.count("routing.tables_entries",
                    static_cast<double>(tables.populatedEntries()));
            p.digest.add(static_cast<std::int64_t>(tables.memoryBytes()));
            p.digest.add(static_cast<std::int64_t>(tables.uniqueSets()));
            p.digest.add(static_cast<std::int64_t>(tables.totalPorts()));
        }

        const DemandMatrix dm =
            p.call("flow.demand", Phase::kRun, net, [&] {
                return makeDemandMatrix("uniform", fc.numTerminals(),
                                        deriveSeed(seed, 12, net_id), 2);
            });
        const UpDownEcmpPaths provider(fc, oracle, 8,
                                       deriveSeed(seed, 13, net_id));
        const FlowProblem problem =
            p.call("flow.paths", Phase::kRun, net, [&] {
                return buildClosFlowProblem(fc, provider, dm);
            });
        // The cap binds before the epsilon stop on both networks, so
        // every seed does the same number of phases.
        SolveOptions so;
        so.max_phases = 100;
        const FlowSolution sol = p.call(
            "flow.solve", Phase::kRun, net,
            [&] { return solveMaxConcurrentFlow(problem, so); });
        const EcmpFluidResult fluid = p.call(
            "flow.fluid", Phase::kRun, net, [&] { return ecmpFluid(problem); });
        const double slack = 1.0 + 1e-9;
        p.op("flow.solve " + net,
             {{"throughput <= dual bound",
               sol.throughput <= sol.dual_bound * slack},
              {"throughput > 0", sol.throughput > 0.0},
              {"no unrouted demand", sol.unrouted_demands == 0}});
        p.op("flow.fluid " + net,
             {{"saturation <= dual bound",
               fluid.saturation <= sol.dual_bound * slack},
              {"saturation > 0", fluid.saturation > 0.0}});

        auto model = makeQueueModel("md1", 16.0);
        QueueSweepOptions qo;
        for (double f : {0.25, 0.5, 0.75, 0.95})
            qo.loads.push_back(f * fluid.saturation);
        const QueueSweepResult sweep =
            p.call("queue.sweep", Phase::kRun, net,
                   [&] { return queueLatencySweep(problem, *model, qo); });
        bool unsaturated = true, ordered = true, rising = true;
        for (std::size_t i = 0; i < sweep.points.size(); ++i) {
            const QueueLoadPoint &q = sweep.points[i];
            unsaturated = unsaturated && !q.saturated;
            ordered = ordered && q.p50_latency <= q.p99_latency;
            if (i > 0)
                rising = rising &&
                         q.mean_latency > sweep.points[i - 1].mean_latency;
        }
        p.op("queue.sweep " + net,
             {{"no saturated point", unsaturated},
              {"p50 <= p99", ordered},
              {"mean latency rises with load", rising},
              {"injection util == ejection util",
               std::abs(sweep.injection_util - sweep.ejection_util) <=
                   1e-9 * std::max(1.0, sweep.injection_util)},
              {"no unrouted demand", sweep.unrouted == 0}});

        const auto paths = static_cast<double>(problem.numPathsTotal());
        p.count("flow.paths", paths);
        p.count("flow.phases", sol.phases);
        p.count("flow.path_phases", paths * sol.phases);
        p.count("queue.path_loads",
                paths * static_cast<double>(qo.loads.size()));
        p.digest.add(static_cast<std::int64_t>(dm.demands.size()));
        p.digest.add(static_cast<std::int64_t>(problem.numPathsTotal()));
        for (double v : {sol.throughput, sol.dual_bound, fluid.saturation,
                         fluid.worst, fluid.average, sweep.saturation,
                         sweep.zero_load_latency})
            p.digest.add(v);
        p.digest.add(static_cast<std::int64_t>(sol.phases));
        for (const QueueLoadPoint &q : sweep.points)
            for (double v : {q.load, q.mean_latency, q.p50_latency,
                             q.p99_latency, q.max_utilization})
                p.digest.add(v);
    }
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "rfc_perf: " << why
              << "\nusage: rfc_perf --workload NAME --seed S "
                 "[--trace FILE] [--quick]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_path;
    std::uint64_t seed = 0;
    bool have_seed = false, quick = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            workload = next();
        } else if (a == "--seed") {
            const std::string v = next();
            std::size_t used = 0;
            try {
                seed = std::stoull(v, &used);
            } catch (const std::exception &) {
                used = 0;
            }
            if (used == 0 || used != v.size() || v[0] == '-')
                usage("--seed must be a non-negative integer, got '" + v +
                      "'");
            have_seed = true;
        } else if (a == "--trace") {
            trace_path = next();
        } else if (a == "--quick") {
            quick = true;
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    const bool vct = workload == "fig8_uniform" ||
                     workload == "fig8_pairing_saturated" ||
                     workload == "closed_loop_rpc_incast";
    if (!vct && workload != "fig10_scale")
        usage("unknown workload '" + workload + "'");
    if (!have_seed)
        usage("--seed is required");

    Pass p(!trace_path.empty());
    try {
        Pass::Group root(p, workload, "");
        if (vct)
            runVct(p, workload, quick, seed);
        else
            runFig10(p, quick, seed);
    } catch (const std::exception &e) {
        p.op("pass", {{e.what(), false}});
    }

    if (!trace_path.empty()) {
        std::ofstream os(trace_path);
        p.writeTrace(os);
        if (!os)
            p.op("trace", {{"trace file written", false}});
    }

    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(p.digest.value()));
    JsonWriter w(std::cout);
    w.beginObject();
    w.kv("workload", workload);
    w.kv("seed", seed);
    w.kv("quick", quick);
    w.kv("digest", std::string(digest));
    w.kv("setup_s", p.setup_s);
    w.kv("run_s", p.run_s);
    w.kv("peak_rss_mb",
         static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0));
    w.kv("ops_total", static_cast<std::int64_t>(p.ops_total));
    w.kv("ops_failed", static_cast<std::int64_t>(p.ops_failed));
    w.key("failures");
    w.beginArray();
    for (const auto &f : p.failures)
        w.value(f);
    w.endArray();
    w.key("counts");
    w.beginObject();
    for (const auto &[name, v] : p.counts)
        w.kv(name, v);
    w.endObject();
    w.endObject();
    return p.ops_failed == 0 ? 0 : 1;
}
