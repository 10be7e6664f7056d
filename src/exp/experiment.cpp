#include "exp/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/fault_sweep.hpp"
#include "clos/topology_events.hpp"
#include "flow/demand.hpp"
#include "flow/paths.hpp"
#include "queue/latency.hpp"
#include "queue/queue_model.hpp"
#include "routing/updown.hpp"
#include "util/json.hpp"
#include "util/mem.hpp"
#include "util/threadpool.hpp"

namespace rfc {

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One trial's named outputs; the engine folds each name over reps. */
struct Sample
{
    std::vector<Metric> metrics;  //!< raw values, no stat yet
    std::vector<std::pair<std::string, double>> timing;
    double seconds = 0.0;  //!< trial wall clock, set by the engine

    void
    add(std::string name, double x, Fold fold = Fold::kStat)
    {
        metrics.push_back({std::move(name), fold, {}, {x}});
    }

    void
    add(std::string name, const std::vector<long long> &xs, Fold fold)
    {
        metrics.push_back(
            {std::move(name), fold, {}, std::vector<double>(xs.begin(),
                                                            xs.end())});
    }
};

using Named = std::pair<const char *, double>;

void
addAll(Sample &s, std::initializer_list<Named> values)
{
    for (const auto &[name, x] : values)
        s.add(name, x);
}

double
num(long long v)
{
    return static_cast<double>(v);
}

/** One open-loop packet-simulation trial. */
Sample
vctTrial(const Point &pt, const SimConfig &cfg)
{
    const Case &c = pt.scenario;
    const FoldedClos &fc = *pt.network.topology;
    auto traffic = c.traffic();
    const SimResult r =
        c.changes ? Simulator(fc, *traffic, cfg, *c.changes).run()
                  : Simulator(fc, *pt.network.oracle, *traffic, cfg).run();

    Sample s;
    addAll(s, {{"accepted", r.accepted},
               {"avg_latency", r.avg_latency},
               {"p50_latency", r.p50_latency},
               {"p99_latency", r.p99_latency},
               {"avg_hops", r.avg_hops},
               {"delivered_packets", num(r.delivered_packets)},
               {"generated_packets", num(r.generated_packets)},
               {"suppressed_packets", num(r.suppressed_packets)},
               {"unroutable_packets", num(r.unroutable_packets)},
               {"dropped_packets", num(r.dropped_packets)},
               {"rerouted_packets", num(r.rerouted_packets)},
               {"route_retries", num(r.route_retries)}});
    s.add("conservation_violations", conservationGap(r) != 0 ? 1 : 0,
          Fold::kSum);
    if (c.changes && cfg.telemetry_bin > 0) {
        // Recovery after the first failure or detach.
        const RecoveryStats rec = computeRecovery(
            r.delivered_bins, r.telemetry_bin, cfg.warmup + cfg.measure,
            c.changes->firstDisruptionCycle());
        s.add("time_to_reconverge", num(rec.time_to_reconverge));
        s.add("dip_fraction", rec.dip_fraction);
        s.add("delivered_bins_mean", r.delivered_bins, Fold::kSeriesMean);
    }
    if (const ExpansionCounters &e = r.expansion; e.active)
        addAll(s, {{"links_failed", num(e.links_failed)},
                   {"links_repaired", num(e.links_repaired)},
                   {"links_detached", num(e.links_detached)},
                   {"links_attached", num(e.links_attached)},
                   {"switches_added", num(e.switches_added)},
                   {"terminals_activated", num(e.terminals_activated)},
                   {"barrier_inflight_max", num(e.barrier_inflight_max)}});
    // Engine counters depend on the simulated physics only.
    s.add("cycles", num(r.perf.cycles));
    s.add("switch_scans", num(r.perf.switch_scans), Fold::kSum);
    s.add("arb_conflicts", num(r.perf.arb_conflicts), Fold::kSum);
    s.add("credit_stalls", num(r.perf.credit_stalls), Fold::kSum);
    s.add("forwards", num(r.perf.forwards), Fold::kSum);
    s.add("occupancy", r.perf.occupancy, Fold::kSeriesSum);
    s.timing.push_back({"cycles_per_sec", r.perf.cycles_per_sec});
    return s;
}

/** One closed-loop workload trial. */
Sample
workloadTrial(const Point &pt, const SimConfig &cfg)
{
    auto wl = makeWorkload(pt.scenario.workload, cfg.load);
    // The simulator still needs a pattern (its ctor seeds the demand
    // matrix); the workload replaces it, so pass the cheapest one.
    auto traffic = makeTraffic("uniform");
    Simulator sim(*pt.network.topology, *pt.network.oracle, *traffic, cfg);
    sim.attachWorkload(*wl);
    const SimResult r = sim.run();
    const WorkloadMetrics &w = r.workload;

    Sample s;
    addAll(s, {{"goodput", w.goodput},
               {"accepted", r.accepted},
               {"avg_latency", r.avg_latency},
               {"p99_latency", r.p99_latency},
               {"fct_mean", w.fct_mean},
               {"fct_p50", w.fct_p50},
               {"fct_p99", w.fct_p99},
               {"fct_max", w.fct_max},
               {"rpc_mean", w.rpc_mean},
               {"rpc_p50", w.rpc_p50},
               {"rpc_p99", w.rpc_p99},
               {"rpc_p999", w.rpc_p999},
               {"rpc_max", w.rpc_max},
               {"cct_mean", w.cct_mean},
               {"cct_max", w.cct_max},
               {"messages_sent", num(w.messages_sent)},
               {"flows_completed", num(w.flows_completed)},
               {"rpcs_completed", num(w.rpcs_completed)},
               {"coflow_phases", num(w.coflow_phases)}});
    s.add("conservation_violations",
          w.conservation_residual != 0 || w.eject_mismatch != 0 ? 1 : 0,
          Fold::kSum);
    return s;
}

/**
 * One rep of an analytic group: the flow problem of its network and
 * case, then the flow solve or the queue sweep over the group's loads.
 */
std::vector<Sample>
analyticGroup(const Study &st, const Point *pts, std::size_t n,
              std::uint64_t demand_seed, std::uint64_t path_seed,
              ThreadPool &pool)
{
    const Network &net = pts->network;
    const DemandMatrix dm =
        makeDemandMatrix(pts->scenario.pattern, net.terminals(),
                         demand_seed, st.uniform_samples);
    const auto build_start = Clock::now();
    FlowProblem problem;
    if (net.topology) {
        UpDownEcmpPaths provider(*net.topology, *net.oracle, st.max_paths,
                                 path_seed);
        problem = buildClosFlowProblem(*net.topology, provider, dm, &pool);
    } else if (net.graph) {
        KspPaths provider(*net.graph, st.max_paths);
        problem = buildGraphFlowProblem(*net.graph, net.hosts_per_switch,
                                        provider, dm, &pool);
    } else {
        throw std::invalid_argument("ExperimentEngine: " + net.label +
                                    " has neither topology nor graph");
    }
    const double build = since(build_start);
    const auto solve_start = Clock::now();

    std::vector<Sample> out(n);
    for (Sample &s : out)
        addAll(s, {{"demands", num(problem.numDemands())},
                   {"links", num(problem.numLinks())},
                   {"paths", num(problem.numPathsTotal())}});
    const char *phase = "solve_seconds";
    if (st.tier == Tier::kFlow) {
        SolveOptions solve = st.solve;
        solve.pool = &pool;
        const FlowSolution sol = solveMaxConcurrentFlow(problem, solve);
        const EcmpFluidResult fluid = ecmpFluid(problem, &pool);
        for (Sample &s : out)
            addAll(s, {{"routed", num(sol.routed_demands)},
                       {"unrouted", num(sol.unrouted_demands)},
                       {"throughput", sol.throughput},
                       {"dual_bound", sol.dual_bound},
                       {"converged", sol.converged ? 1.0 : 0.0},
                       {"phases", num(sol.phases)},
                       {"ecmp_saturation", fluid.saturation},
                       {"ecmp_worst", fluid.worst},
                       {"ecmp_average", fluid.average}});
    } else {
        phase = "sweep_seconds";
        const SimConfig &cfg = pts->config;
        auto model = makeQueueModel(
            st.model, static_cast<double>(cfg.pkt_phits), st.mg1_cv2);
        QueueSweepOptions opt;
        for (std::size_t i = 0; i < n; ++i)
            opt.loads.push_back(pts[i].load);
        opt.pkt_phits = cfg.pkt_phits;
        opt.link_latency = cfg.link_latency;
        opt.pool = &pool;
        const QueueSweepResult sweep =
            queueLatencySweep(problem, *model, opt);
        for (std::size_t i = 0; i < n; ++i) {
            const QueueLoadPoint &q = sweep.points[i];
            addAll(out[i], {{"routed", num(sweep.routed)},
                            {"unrouted", num(sweep.unrouted)},
                            {"saturation", sweep.saturation},
                            {"zero_load_latency", sweep.zero_load_latency},
                            {"offered_weight", sweep.offered_weight},
                            {"saturated", q.saturated ? 1.0 : 0.0},
                            {"mean_latency", q.mean_latency},
                            {"p50_latency", q.p50_latency},
                            {"p99_latency", q.p99_latency},
                            {"max_utilization", q.max_utilization}});
        }
    }
    // The group's timers are shared evenly by its points.
    const double solve = since(solve_start);
    for (Sample &s : out)
        s.timing = {{"build_seconds", build / num(n)},
                    {phase, solve / num(n)}};
    return out;
}

MetricStat
toMetricStat(const RunningStat &s)
{
    return {s.mean(), s.stddev(), s.ci95(), s.min(), s.max()};
}

/** Serial fold of one point's trials, in rep order. */
PointResult
foldPoint(const Point &pt, const Sample *trials, std::size_t reps)
{
    PointResult pr;
    pr.network = pt.network.label;
    pr.scenario = pt.scenario.label;
    pr.label = pt.label;
    pr.load = pt.load;
    pr.reps = static_cast<int>(reps);
    pr.terminals = pt.network.terminals();
    pr.topology_bytes = pt.network.topologyBytes();
    pr.oracle_bytes = pt.network.oracleBytes();

    for (std::size_t k = 0; k < trials[0].metrics.size(); ++k) {
        Metric m{trials[0].metrics[k].name, trials[0].metrics[k].fold,
                 {}, {}};
        RunningStat stat;
        for (std::size_t r = 0; r < reps; ++r) {
            const Metric &x = trials[r].metrics.at(k);
            if (x.name != m.name)
                throw std::logic_error("ExperimentEngine: trials of " +
                                       pt.label + " emit different metrics");
            if (m.fold == Fold::kStat) {
                stat.add(x.values[0]);
                continue;
            }
            if (m.values.size() < x.values.size())
                m.values.resize(x.values.size(), 0.0);
            for (std::size_t i = 0; i < x.values.size(); ++i)
                m.values[i] += m.fold == Fold::kSeriesMean
                                   ? x.values[i] / num(pr.reps)
                                   : x.values[i];
        }
        m.stat = toMetricStat(stat);
        pr.metrics.push_back(std::move(m));
    }

    double total = 0.0, slowest = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
        total += trials[r].seconds;
        slowest = std::max(slowest, trials[r].seconds);
    }
    pr.timing = {{"trial_seconds_total", total},
                 {"trial_seconds_max", slowest}};
    // Evaluator timers are per-trial means.
    for (std::size_t k = 0; k < trials[0].timing.size(); ++k) {
        double sum = 0.0;
        for (std::size_t r = 0; r < reps; ++r)
            sum += trials[r].timing.at(k).second;
        pr.timing.push_back({trials[0].timing[k].first, sum / num(pr.reps)});
    }
    return pr;
}

/** The tier knobs a section's meta echoes, then the study's own. */
Fields
sectionConfig(const Study &st)
{
    Fields f;
    const bool analytic = st.tier == Tier::kFlow || st.tier == Tier::kQueue;
    if (!st.points.empty()) {
        const SimConfig &c = st.points.front().config;
        if (!analytic)
            f = {{"warmup", c.warmup},
                 {"measure", c.measure},
                 {"shards", c.shards}};
        else if (st.tier == Tier::kQueue)
            f = {{"model", st.model},
                 {"pkt_phits", c.pkt_phits},
                 {"link_latency", c.link_latency}};
    }
    if (analytic) {
        f.push_back({"max_paths", st.max_paths});
        f.push_back({"uniform_samples", st.uniform_samples});
    }
    if (st.tier == Tier::kFlow) {
        f.push_back({"epsilon", st.solve.epsilon});
        f.push_back({"max_phases", st.solve.max_phases});
    }
    f.insert(f.end(), st.config.begin(), st.config.end());
    return f;
}

void
writeFields(JsonWriter &w, const Fields &fields)
{
    for (const auto &[key, value] : fields)
        std::visit([&w, &key = key](const auto &v) { w.kv(key, v); },
                   value);
}

void
writePoint(JsonWriter &w, const std::string &section, const PointResult &p)
{
    w.beginObject();
    w.kv("section", section);
    w.kv("network", p.network);
    w.kv("case", p.scenario);
    w.kv("label", p.label);
    w.kv("load", p.load);
    w.kv("reps", static_cast<std::int64_t>(p.reps));
    w.kv("terminals", static_cast<std::int64_t>(p.terminals));
    w.key("metrics");
    w.beginObject();
    for (const Metric &m : p.metrics) {
        w.key(m.name);
        if (m.fold == Fold::kStat) {
            w.beginObject();
            w.kv("mean", m.stat.mean);
            if (p.reps > 1) {
                w.kv("stddev", m.stat.stddev);
                w.kv("ci95", m.stat.ci95);
                w.kv("min", m.stat.min);
                w.kv("max", m.stat.max);
            }
            w.endObject();
        } else if (m.fold == Fold::kSum) {
            w.value(m.values.at(0));
        } else {
            w.beginArray();
            for (double v : m.values)
                w.value(v);
            w.endArray();
        }
    }
    w.endObject();
    w.key("memory");
    w.beginObject();
    w.kv("topology_bytes", p.topology_bytes);
    w.kv("oracle_bytes", p.oracle_bytes);
    w.endObject();
    w.key("timing");
    w.beginObject();
    for (const auto &[key, seconds] : p.timing)
        w.kv(key, seconds);
    w.endObject();
    w.endObject();
}

} // namespace

TrafficFactory
namedTraffic(const std::string &name)
{
    return [name]() { return makeTraffic(name); };
}

std::vector<double>
loadRange(double lo, double hi, int points)
{
    if (!(lo > 0.0 && lo <= hi && hi <= 1.0))
        throw std::invalid_argument(
            "loadRange: need 0 < lo <= hi <= 1 (SimConfig rejects "
            "zero offered load)");
    std::vector<double> out;
    if (points <= 1) {
        out.push_back(hi);
        return out;
    }
    // The last point is hi exactly: the interpolated value can round
    // past it (0.2 + 0.8 * 6 / 6 > 1.0), which SimConfig rejects.
    for (int i = 0; i < points; ++i)
        out.push_back(i == points - 1 ? hi
                                      : lo + (hi - lo) * i / (points - 1));
    return out;
}

long long
Network::terminals() const
{
    if (topology)
        return topology->numTerminals();
    return graph ? static_cast<long long>(graph->numVertices()) *
                       hosts_per_switch
                 : 0;
}

std::int64_t
Network::topologyBytes() const
{
    if (topology)
        return topology->memoryBytes();
    if (!graph)
        return 0;
    // Graph stores each edge once per endpoint (4-byte ids) plus a
    // vector header per vertex.
    return static_cast<std::int64_t>(graph->numEdges()) * 2 * 4 +
           static_cast<std::int64_t>(graph->numVertices()) *
               static_cast<std::int64_t>(sizeof(std::vector<int>));
}

std::int64_t
Network::oracleBytes() const
{
    return oracle ? oracle->memoryBytes() : 0;
}

std::vector<Point>
crossPoints(const std::vector<Network> &networks,
            const std::vector<Case> &cases,
            const std::vector<double> &loads, const SimConfig &base)
{
    std::vector<Point> out;
    out.reserve(networks.size() * cases.size() * loads.size());
    for (const Network &net : networks)
        for (const Case &c : cases)
            for (double load : loads) {
                Point p{net, c, load, base, net.label + "/" + c.label};
                if (c.route_mode)
                    p.config.route_mode = *c.route_mode;
                out.push_back(std::move(p));
            }
    return out;
}

std::size_t
gridIndex(const std::vector<std::size_t> &sizes,
          const std::vector<std::size_t> &at)
{
    if (sizes.size() != at.size())
        throw std::invalid_argument(
            "gridIndex: need one coordinate per axis");
    std::size_t index = 0;
    for (std::size_t k = 0; k < sizes.size(); ++k) {
        if (at[k] >= sizes[k])
            throw std::out_of_range(
                "gridIndex: coordinate " + std::to_string(at[k]) +
                " outside axis " + std::to_string(k) + " of size " +
                std::to_string(sizes[k]));
        index = index * sizes[k] + at[k];
    }
    return index;
}

const char *
tierName(Tier tier)
{
    switch (tier) {
    case Tier::kVct: return "vct";
    case Tier::kWorkload: return "closed-loop";
    case Tier::kFlow: return "flow";
    case Tier::kQueue: return "queue";
    }
    return "unknown";
}

bool
PointResult::has(const std::string &name) const
{
    return std::any_of(metrics.begin(), metrics.end(),
                       [&](const Metric &m) { return m.name == name; });
}

double
PointResult::mean(const std::string &name) const
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return m.fold == Fold::kStat ? m.stat.mean : m.values.at(0);
    throw std::out_of_range("PointResult " + label + ": no metric " +
                            name);
}

long long
conservationGap(const SimResult &r)
{
    return r.generated_packets -
           (r.suppressed_packets + r.unroutable_packets +
            r.queued_packets_end + r.in_flight_packets +
            r.ejected_packets + r.dropped_packets);
}

ExperimentEngine::ExperimentEngine(int jobs, std::uint64_t base_seed)
    : base_seed_(base_seed)
{
    if (jobs <= 0)
        jobs = ThreadPool::hardwareConcurrency();
    // The caller participates in parallelFor, so a pool of jobs-1
    // workers yields exactly `jobs` concurrent threads.
    pool_ = std::make_unique<ThreadPool>(jobs - 1);
}

ExperimentEngine::~ExperimentEngine() = default;

int
ExperimentEngine::jobs() const
{
    return pool_->size() + 1;
}

void
ExperimentEngine::checkCount(const char *what, long long n)
{
    if (n < 1)
        throw std::invalid_argument(std::string("ExperimentEngine: ") +
                                    what + " must be >= 1, got " +
                                    std::to_string(n));
}

void
ExperimentEngine::forEachIndex(
    std::size_t n, const std::function<void(std::size_t)> &fn) const
{
    parallelFor(*pool_, n, fn);
}

StudyResult
ExperimentEngine::run(const Study &study) const
{
    checkCount("repetition count", study.reps);
    const auto start = Clock::now();
    const std::vector<Point> &pts = study.points;
    const auto reps = static_cast<std::size_t>(study.reps);
    // One slot per trial (point-major), each written exactly once.
    std::vector<Sample> slots(pts.size() * reps);

    if (study.tier == Tier::kVct || study.tier == Tier::kWorkload) {
        forEachIndex(slots.size(), [&](std::size_t t) {
            const Point &pt = pts[t / reps];
            SimConfig cfg = pt.config;
            cfg.load = pt.load;
            cfg.seed = deriveSeed(base_seed_, t / reps, t % reps);
            const auto trial_start = Clock::now();
            slots[t] = study.tier == Tier::kVct ? vctTrial(pt, cfg)
                                                : workloadTrial(pt, cfg);
            slots[t].seconds = since(trial_start);
        });
    } else {
        std::uint64_t group = 0;
        for (std::size_t first = 0, last = 0; first < pts.size();
             first = last, ++group) {
            for (last = first + 1;
                 last < pts.size() &&
                 pts[last].network.label == pts[first].network.label &&
                 pts[last].scenario.label == pts[first].scenario.label;
                 ++last) {
            }
            const std::size_t n = last - first;
            for (std::size_t r = 0; r < reps; ++r) {
                const auto group_start = Clock::now();
                std::vector<Sample> out = analyticGroup(
                    study, &pts[first], n,
                    deriveSeed(base_seed_, group, 2 * r),
                    deriveSeed(base_seed_, group, 2 * r + 1), *pool_);
                const double share = since(group_start) / num(n);
                for (std::size_t i = 0; i < n; ++i) {
                    out[i].seconds = share;
                    slots[(first + i) * reps + r] = std::move(out[i]);
                }
            }
        }
    }

    StudyResult result{study.section, study.tier, study.reps,
                       sectionConfig(study), {}, 0.0};
    for (std::size_t p = 0; p < pts.size(); ++p)
        result.points.push_back(foldPoint(pts[p], &slots[p * reps], reps));
    result.wall_seconds = since(start);
    return result;
}

RunningStat
ExperimentEngine::study(
    std::uint64_t stream, int reps,
    const std::function<double(int, std::uint64_t)> &fn) const
{
    checkCount("repetition count", reps);
    std::vector<double> samples(static_cast<std::size_t>(reps));
    forEachIndex(samples.size(), [&](std::size_t i) {
        samples[i] = fn(static_cast<int>(i),
                        deriveSeed(base_seed_, stream, i));
    });
    RunningStat stat;
    for (double s : samples)
        stat.add(s);
    return stat;
}

Report::Report(std::string bench, std::uint64_t base_seed, int jobs)
    : bench_(std::move(bench)), base_seed_(base_seed), jobs_(jobs),
      start_(Clock::now())
{}

void
Report::add(StudyResult study)
{
    studies_.push_back(std::move(study));
}

void
Report::addTable(std::string heading, TablePrinter table)
{
    tables_.emplace_back(std::move(heading), std::move(table));
}

void
Report::field(std::string key, JsonScalar value)
{
    summary_.emplace_back(std::move(key), std::move(value));
}

void
Report::write(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.key("meta");
    w.beginObject();
    w.kv("bench", bench_);
    w.kv("base_seed", base_seed_);
    w.key("sections");
    w.beginArray();
    for (const StudyResult &s : studies_) {
        w.beginObject();
        w.kv("name", s.section);
        w.kv("tier", tierName(s.tier));
        w.kv("repetitions", static_cast<std::int64_t>(s.reps));
        writeFields(w, s.config);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("points");
    w.beginArray();
    for (const StudyResult &s : studies_)
        for (const PointResult &p : s.points)
            writePoint(w, s.section, p);
    w.endArray();

    w.key("tables");
    w.beginArray();
    for (const auto &[heading, table] : tables_) {
        w.beginObject();
        w.kv("heading", heading);
        w.key("rows");
        table.writeJson(w);
        w.endObject();
    }
    w.endArray();

    w.key("summary");
    w.beginObject();
    writeFields(w, summary_);
    w.endObject();

    w.key("timing");
    w.beginObject();
    w.kv("jobs", static_cast<std::int64_t>(jobs_));
    w.kv("wall_seconds", since(start_));
    w.kv("peak_rss_bytes", static_cast<std::int64_t>(peakRssBytes()));
    w.key("section_seconds");
    w.beginObject();
    for (const StudyResult &s : studies_)
        w.kv(s.section, s.wall_seconds);
    w.endObject();
    w.endObject();
    w.endObject();
}

} // namespace rfc
