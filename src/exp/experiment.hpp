/**
 * @file
 * Deterministic parallel experiment runner: one study type for every
 * fidelity tier and one JSON document per run.
 *
 * Every figure and table of the paper sweeps networks x cases x offered
 * loads x seeds.  A Study lists its points (the crossPoints product or a
 * hand-built list) and names the tier that evaluates them:
 *
 *  - kVct: the packet simulator under open-loop traffic;
 *  - kWorkload: the packet simulator driving a closed-loop workload;
 *  - kFlow: certified max concurrent flow plus ECMP fluid (src/flow);
 *  - kQueue: the analytic queue-model latency sweep (src/queue).
 *
 * ExperimentEngine::run keeps the output bit-identical at any --jobs
 * value: trial r of point p runs at seed deriveSeed(base, p, r), every
 * trial fills its own slot, and aggregation is one serial pass.  The
 * packet tiers spread their trials across the engine's pool.  The
 * analytic tiers run one group at a time (consecutive points with equal
 * network and case labels, e.g. one load curve) and hand the pool to
 * the solver instead: a parallelFor nested on one pool can deadlock,
 * and concurrent million-terminal flow problems would multiply peak
 * memory.  Rep r of group g draws its demand matrix from
 * deriveSeed(base, g, 2r) and its sampled paths from
 * deriveSeed(base, g, 2r + 1); the queue tier builds one flow problem
 * per group and sweeps all of the group's loads on it.
 *
 * Each tier's evaluator emits named values per trial; the engine folds
 * every name over the reps generically (Fold) and Report writes any
 * result as {meta, points, tables, summary, timing}, with every
 * run-dependent value (jobs, wall clock, peak RSS) inside objects named
 * "timing".
 *
 * Packet counters are per-trial means like every other metric; only
 * the engine perf counters, histograms and conservation-violation
 * counts are totals over the reps.
 */
#ifndef RFC_EXP_EXPERIMENT_HPP
#define RFC_EXP_EXPERIMENT_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "flow/solver.hpp"
#include "graph/graph.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/closed_loop.hpp"

namespace rfc {

class ThreadPool;

/** Creates a fresh Traffic instance for one trial (thread-confined). */
using TrafficFactory = std::function<std::unique_ptr<Traffic>()>;

/** Factory for the makeTraffic() pattern @p name. */
TrafficFactory namedTraffic(const std::string &name);

/**
 * Evenly spaced loads in [lo, hi] with @p points entries.  Throws
 * std::invalid_argument unless 0 < lo <= hi <= 1: a load of exactly 0
 * is not simulable (SimConfig::validate rejects it).
 */
std::vector<double> loadRange(double lo, double hi, int points);

/** A network under test: a folded Clos or a direct graph. */
struct Network
{
    std::string label;
    const FoldedClos *topology = nullptr;  //!< Clos family
    /** Routing oracle; null on points whose timeline owns the oracle. */
    const UpDownOracle *oracle = nullptr;
    const Graph *graph = nullptr;  //!< direct family (flow and queue tiers)
    int hosts_per_switch = 0;      //!< direct family

    long long terminals() const;
    /** Bit-stable structure sizes (0 where the part is absent). */
    std::int64_t topologyBytes() const;
    std::int64_t oracleBytes() const;
};

/** What a point evaluates on its network; each tier reads its fields. */
struct Case
{
    std::string label;

    // ---- kVct ------------------------------------------------------
    TrafficFactory traffic{};
    /** Replaces the base config's route mode in crossPoints. */
    std::optional<RouteMode> route_mode{};
    /**
     * Live link faults or topology change: each trial owns an overlay
     * and oracle.  The network's topology must be the union topology
     * of any staged (attached) links.
     */
    const TopologyTimeline *changes = nullptr;

    // ---- kWorkload -------------------------------------------------
    WorkloadSpec workload{};

    // ---- kFlow, kQueue ---------------------------------------------
    std::string pattern{};  //!< makeDemandMatrix name
};

/** One fully specified study point (shared inputs are read-only). */
struct Point
{
    Network network;
    Case scenario;  //!< written as "case"
    double load = 1.0;
    /**
     * Packet-tier template (load and seed are set per trial); the queue
     * tier takes its packet size and link latency from here.
     */
    SimConfig config;
    std::string label;
};

/**
 * The cross product networks x cases x loads (network-major, then case,
 * then load), each point labelled "network/case".  A case axis that is
 * itself a product (route mode x traffic) is flattened by the caller.
 */
std::vector<Point> crossPoints(const std::vector<Network> &networks,
                               const std::vector<Case> &cases,
                               const std::vector<double> &loads,
                               const SimConfig &base = {});

/**
 * Row-major flat index of coordinates @p at in a grid whose axes have
 * @p sizes entries - the order crossPoints expands, with any product
 * axis (route mode x traffic) passed as its separate factors.  Throws
 * std::out_of_range on a coordinate outside its axis and
 * std::invalid_argument when the two lists differ in length.
 */
std::size_t gridIndex(const std::vector<std::size_t> &sizes,
                      const std::vector<std::size_t> &at);

/** The fidelity tier evaluating a study. */
enum class Tier
{
    kVct,
    kWorkload,
    kFlow,
    kQueue,
};

/** "vct", "closed-loop", "flow" or "queue". */
const char *tierName(Tier tier);

/** A scalar in the document: configuration echoes, headline fields. */
using JsonScalar = std::variant<std::int64_t, double, std::string>;
using Fields = std::vector<std::pair<std::string, JsonScalar>>;

/** One section of a run: a point list evaluated at one tier. */
struct Study
{
    std::string section{};
    Tier tier = Tier::kVct;
    std::vector<Point> points{};
    int reps = 1;

    // ---- kFlow, kQueue ---------------------------------------------
    int max_paths = 16;          //!< candidate paths per pair (ECMP / Yen k)
    int uniform_samples = 4;     //!< uniform-pattern permutations; <= 0 exact
    SolveOptions solve{};        //!< kFlow; the pool is the engine's
    std::string model = "md1";   //!< kQueue: makeQueueModel name
    double mg1_cv2 = 0.0;        //!< kQueue: mg1 service cv^2

    /** Bench-specific configuration echoed in the section's meta. */
    Fields config{};
};

/** Mean / spread snapshot of one metric over the reps of a point. */
struct MetricStat
{
    double mean = 0.0;
    double stddev = 0.0;
    double ci95 = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** How a named value folds over the reps of a point. */
enum class Fold
{
    kStat,        //!< MetricStat (spread written when reps > 1)
    kSum,         //!< total over the reps (counters)
    kSeriesSum,   //!< elementwise total (histograms)
    kSeriesMean,  //!< elementwise mean, accumulated as sum of x / reps
};

/** One named value of a point, folded over its reps. */
struct Metric
{
    std::string name;
    Fold fold = Fold::kStat;
    MetricStat stat;             //!< kStat
    std::vector<double> values;  //!< kSum (one entry) and the series
};

/** Aggregated results at one point. */
struct PointResult
{
    std::string network;
    std::string scenario;  //!< the case label
    std::string label;
    double load = 0.0;
    int reps = 0;
    long long terminals = 0;
    std::int64_t topology_bytes = 0;
    std::int64_t oracle_bytes = 0;
    std::vector<Metric> metrics;  //!< in evaluator order
    /** Run-dependent telemetry: trial seconds, evaluator timers. */
    std::vector<std::pair<std::string, double>> timing;

    bool has(const std::string &name) const;
    /**
     * The per-trial mean of a kStat metric, or a kSum total; throws
     * std::out_of_range naming @p name when absent.
     */
    double mean(const std::string &name) const;
};

/** Result of ExperimentEngine::run: points in study order. */
struct StudyResult
{
    std::string section;
    Tier tier = Tier::kVct;
    int reps = 1;
    Fields config;  //!< tier knobs, then Study::config
    std::vector<PointResult> points;
    double wall_seconds = 0.0;
};

/**
 * Runs studies on a thread pool with deterministic seeding.
 *
 * `jobs` counts total concurrent threads including the caller
 * (jobs = 1 is fully serial); <= 0 selects hardware concurrency.
 * Every entry point throws std::invalid_argument, naming the count,
 * when its repetition or trial count is below 1; exceptions from
 * trials are rethrown on the caller.
 */
class ExperimentEngine
{
  public:
    explicit ExperimentEngine(int jobs = 0, std::uint64_t base_seed = 1);
    ~ExperimentEngine();

    int jobs() const;
    std::uint64_t baseSeed() const { return base_seed_; }

    /** Evaluate every point of @p study study.reps times. */
    StudyResult run(const Study &study) const;

    /**
     * Generic parallel study: aggregate `reps` scalar-valued trials of
     * fn(rep, seed), with seed = deriveSeed(base_seed, stream, rep).
     */
    RunningStat study(std::uint64_t stream, int reps,
                      const std::function<double(int, std::uint64_t)>
                          &fn) const;

    /**
     * Generic deterministic map: out[i] = fn(i, deriveSeed(base, stream,
     * i)) for i < n, computed on the pool.
     */
    template <typename R>
    std::vector<R>
    map(std::uint64_t stream, int n,
        const std::function<R(std::size_t, std::uint64_t)> &fn) const
    {
        checkCount("trial count", n);
        std::vector<R> out(static_cast<std::size_t>(n));
        forEachIndex(out.size(), [&](std::size_t i) {
            out[i] = fn(i, deriveSeed(base_seed_, stream, i));
        });
        return out;
    }

  private:
    static void checkCount(const char *what, long long n);
    void forEachIndex(std::size_t n,
                      const std::function<void(std::size_t)> &fn) const;

    std::unique_ptr<ThreadPool> pool_;
    std::uint64_t base_seed_;
};

/**
 * Packet conservation audit for one open-loop run: every generated
 * packet must end in exactly one terminal state, so
 *
 *   generated == suppressed + unroutable + queued_packets_end
 *              + in_flight_packets + ejected_packets + dropped_packets
 *
 * Returns the (signed) imbalance; 0 on a healthy engine.  The packet
 * tier audits every trial and reports the violating ones in the
 * conservation_violations metric.
 */
long long conservationGap(const SimResult &r);

/**
 * One run's JSON document:
 *
 *   {"meta": {bench, base_seed, sections: [{name, tier, repetitions,
 *             ...config}]},
 *    "points": [{section, network, case, label, load, reps, terminals,
 *                metrics: {name: {mean[, stddev, ci95, min, max]} |
 *                          total | [series]},
 *                memory: {topology_bytes, oracle_bytes}, timing: {...}}],
 *    "tables": [{heading, rows: [{header: cell}]}],
 *    "summary": {headline fields},
 *    "timing": {jobs, wall_seconds, peak_rss_bytes, section_seconds}}
 *
 * Everything outside the "timing" objects is bit-identical at any jobs
 * value.
 */
class Report
{
  public:
    Report(std::string bench, std::uint64_t base_seed, int jobs);

    void add(StudyResult study);
    void addTable(std::string heading, TablePrinter table);
    void field(std::string key, JsonScalar value);
    void write(std::ostream &os) const;

  private:
    std::string bench_;
    std::uint64_t base_seed_;
    int jobs_;
    std::chrono::steady_clock::time_point start_;
    std::vector<StudyResult> studies_;
    std::vector<std::pair<std::string, TablePrinter>> tables_;
    Fields summary_;
};

} // namespace rfc

#endif // RFC_EXP_EXPERIMENT_HPP
