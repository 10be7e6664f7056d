/**
 * @file
 * Legacy-equivalence tests for the flow tier's streamed buffers
 * (tier 1).
 *
 * Three passes of src/flow were rewritten to stop materializing
 * transient copies of the path set, with the promise that every output
 * bit stays the same.  Each test here pins a rewritten pass to an
 * executable replica of the code it replaced:
 *
 *  - `legacyEcmpFluid`: (link, contribution) pair vectors per fixed
 *    demand range, stable-sorted by link and reduced, merged in range
 *    order - against the dense per-range scratch array of ecmpFluid;
 *  - `legacyBuild`: one heap vector of link ids per candidate path
 *    kept for every demand, each hop's link found by scanning port
 *    lists, then assembled in demand order - against
 *    buildClosFlowProblem's waves of range link rows (serial and on
 *    thread pools);
 *  - `LegacyPaths`: UpDownEcmpPaths as it was, always enumerating
 *    before it samples, allocating a choice list per DFS node and per
 *    sample and asking the oracle's list methods at every hop -
 *    against the enumerator that skips enumeration when the source's
 *    up choices alone exceed the cap and takes each switch's choices
 *    once per leaf pair; every port it reports must join its hop's
 *    switches;
 *  - `legacySolve`: solveMaxConcurrentFlow with a std::exp call per
 *    weight update and a push_back touched list - against the solver
 *    that memoises exp by argument and fills the list without a
 *    branch (serial and on a thread pool).
 *
 * The replicas build and read the path format that kept a demand's
 * injection and ejection links inside every one of its paths; the
 * problem now stores them once per demand as its end links.  The
 * replicas read paths through FlowProblem::forEachLink like the code
 * under test, the problem comparison is over whole link sequences,
 * ends included, and `withoutEnds` re-expresses a problem in the old
 * format so that the solver, the ECMP fluid and the queue sweep can
 * be run on both encodings of one instance, built by
 * buildClosFlowProblem or by hand.
 *
 * Every comparison is exact (EXPECT_EQ on doubles and link ids), over
 * CFT, OFT and random RFC networks (one with link faults, so that
 * some demands are unroutable), path caps 1, 4, 8 and 64, and
 * uniform, random-pairing and hand-made unequal demand weights, plus
 * an RFC under a dead-link overlay and CFT(132,2), whose port sets are
 * wider than 64, at caps 1, 2, 8 and 64; the problem is built at
 * every wave width from 1 to 4 ranges, also from fewer demands than
 * ranges; the solver also runs on hand-made problems with non-unit
 * capacities (many distinct update exponents, so memo slots collide)
 * and on one whose weights grow past the rescale threshold.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/oft.hpp"
#include "clos/rfc.hpp"
#include "flow/demand.hpp"
#include "flow/paths.hpp"
#include "flow/solver.hpp"
#include "queue/latency.hpp"
#include "queue/queue_model.hpp"
#include "routing/updown.hpp"
#include "switch_paths.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace rfc {
namespace {

/** UpDownEcmpPaths before the allocation-free enumerator. */
class LegacyPaths
{
  public:
    LegacyPaths(const FoldedClos &fc, const UpDownOracle &oracle,
                int max_paths, std::uint64_t seed)
        : fc_(fc), oracle_(oracle), max_paths_(max_paths), seed_(seed)
    {
    }

    void
    paths(int src, int dst, std::vector<Path> &out) const
    {
        out.clear();
        if (src == dst) {
            out.push_back({src});
            return;
        }
        int ups = oracle_.minUps(src, dst);
        if (ups < 0)
            return;
        Path prefix;
        prefix.reserve(2 * ups + 1);
        if (enumerate(src, ups, dst, prefix, out))
            return;
        out.clear();
        Rng rng(deriveSeed(seed_, static_cast<std::uint64_t>(src),
                           static_cast<std::uint64_t>(dst)));
        Path p;
        int misses = 0;
        while (static_cast<int>(out.size()) < max_paths_ &&
               misses < 4 * max_paths_) {
            samplePath(src, ups, dst, rng, p);
            if (std::find(out.begin(), out.end(), p) == out.end())
                out.push_back(p);
            else
                ++misses;
        }
        std::sort(out.begin(), out.end());
    }

  private:
    bool
    enumerate(int s, int ups, int dst, Path &prefix,
              std::vector<Path> &out) const
    {
        prefix.push_back(s);
        bool ok = true;
        if (s == dst && ups == 0) {
            if (static_cast<int>(out.size()) >= max_paths_)
                ok = false;
            else
                out.push_back(prefix);
        } else {
            std::vector<int> choices;
            if (ups > 0)
                oracle_.upChoices(fc_, s, dst, choices);
            else
                oracle_.downChoices(fc_, s, dst, choices);
            const auto &next = ups > 0 ? fc_.up(s) : fc_.down(s);
            for (int k : choices) {
                if (!enumerate(next[k], ups > 0 ? ups - 1 : 0, dst,
                               prefix, out)) {
                    ok = false;
                    break;
                }
            }
        }
        prefix.pop_back();
        return ok;
    }

    void
    samplePath(int src, int ups, int dst, Rng &rng, Path &out) const
    {
        out.clear();
        int s = src;
        out.push_back(s);
        std::vector<int> choices;
        for (int u = ups; u > 0; --u) {
            oracle_.upChoices(fc_, s, dst, choices);
            s = fc_.up(s)[choices[rng.uniform(choices.size())]];
            out.push_back(s);
        }
        while (s != dst) {
            oracle_.downChoices(fc_, s, dst, choices);
            s = fc_.down(s)[choices[rng.uniform(choices.size())]];
            out.push_back(s);
        }
    }

    const FoldedClos &fc_;
    const UpDownOracle &oracle_;
    int max_paths_;
    std::uint64_t seed_;
};

/**
 * buildClosFlowProblem before the flat per-range assembly (serial),
 * with each demand's terminal links inside every one of its paths.
 */
FlowProblem
legacyBuild(const FoldedClos &fc, const LegacyPaths &paths,
            const DemandMatrix &dm)
{
    const int n = fc.numSwitches();
    std::vector<std::int64_t> off(static_cast<std::size_t>(n) + 1, 0);
    for (int s = 0; s < n; ++s)
        off[s + 1] = off[s] + static_cast<std::int64_t>(fc.up(s).size()) +
                     static_cast<std::int64_t>(fc.down(s).size());
    auto link_id = [&](int a, int b) -> std::int32_t {
        const auto &up = fc.up(a);
        for (std::size_t k = 0; k < up.size(); ++k)
            if (up[k] == b)
                return static_cast<std::int32_t>(off[a] + k);
        const auto &down = fc.down(a);
        for (std::size_t k = 0; k < down.size(); ++k)
            if (down[k] == b)
                return static_cast<std::int32_t>(off[a] + up.size() + k);
        return -1;
    };

    std::vector<std::vector<std::vector<std::int32_t>>> conv(
        dm.demands.size());
    for (std::size_t i = 0; i < dm.demands.size(); ++i) {
        const Demand &d = dm.demands[i];
        std::vector<Path> ps;
        paths.paths(fc.leafOfTerminal(d.src), fc.leafOfTerminal(d.dst), ps);
        for (const Path &p : ps) {
            std::vector<std::int32_t> links;
            links.reserve(p.size() + 1);
            links.push_back(0);
            for (std::size_t h = 0; h + 1 < p.size(); ++h)
                links.push_back(link_id(p[h], p[h + 1]));
            conv[i].push_back(std::move(links));
        }
    }

    FlowProblem prob;
    for (std::int64_t l = 0; l < off[n]; ++l)
        prob.addLink(1.0);
    std::unordered_map<long long, std::int32_t> inj, ej;
    for (std::size_t i = 0; i < dm.demands.size(); ++i) {
        const Demand &d = dm.demands[i];
        prob.addDemand(d.weight);
        auto [ii, inew] = inj.try_emplace(d.src, 0);
        if (inew)
            ii->second = prob.addLink(1.0);
        auto [ei, enew] = ej.try_emplace(d.dst, 0);
        if (enew)
            ei->second = prob.addLink(1.0);
        for (auto &links : conv[i]) {
            links.front() = ii->second;
            links.push_back(ei->second);
            prob.addPath(links);
        }
    }
    return prob;
}

/** ecmpFluid before the dense per-range accumulation. */
EcmpFluidResult
legacyEcmpFluid(const FlowProblem &p)
{
    EcmpFluidResult r;
    const std::size_t nd = p.numDemands();
    const std::int32_t nl = p.numLinks();
    r.utilization.assign(static_cast<std::size_t>(nl), 0.0);
    r.demand_throughput.assign(nd, 0.0);
    if (nd == 0)
        return r;

    constexpr std::size_t kRanges = 32;
    std::vector<std::vector<std::pair<std::int32_t, double>>> parts(
        kRanges);
    for (std::size_t rg = 0; rg < kRanges; ++rg) {
        std::size_t lo = nd * rg / kRanges, hi = nd * (rg + 1) / kRanges;
        auto &acc = parts[rg];
        for (std::size_t d = lo; d < hi; ++d) {
            std::size_t np = p.numPaths(d);
            if (np == 0)
                continue;
            double c = p.weight(d) / static_cast<double>(np);
            std::size_t pb = p.pathBegin(d);
            for (std::size_t q = pb; q < pb + np; ++q)
                p.forEachLink(d, q, [&](std::int32_t l) {
                    acc.emplace_back(l, c);
                });
        }
        std::stable_sort(acc.begin(), acc.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        std::size_t out = 0;
        for (std::size_t i = 0; i < acc.size(); ++i) {
            if (out > 0 && acc[out - 1].first == acc[i].first)
                acc[out - 1].second += acc[i].second;
            else
                acc[out++] = acc[i];
        }
        acc.resize(out);
    }
    for (const auto &acc : parts)
        for (const auto &[l, v] : acc)
            r.utilization[l] += v;

    double maxu = 0.0;
    for (std::int32_t l = 0; l < nl; ++l) {
        r.utilization[l] /= p.capacity(l);
        maxu = std::max(maxu, r.utilization[l]);
    }
    r.saturation = maxu > 0.0 ? 1.0 / maxu : 0.0;

    for (std::size_t d = 0; d < nd; ++d) {
        std::size_t np = p.numPaths(d);
        if (np == 0)
            continue;
        double m = 0.0;
        std::size_t pb = p.pathBegin(d);
        for (std::size_t q = pb; q < pb + np; ++q)
            p.forEachLink(d, q, [&](std::int32_t l) {
                m = std::max(m, r.utilization[l]);
            });
        r.demand_throughput[d] = m > 0.0 ? 1.0 / m : 0.0;
    }

    double worst = std::numeric_limits<double>::infinity();
    double sum = 0.0;
    std::size_t routed = 0;
    for (std::size_t d = 0; d < nd; ++d) {
        if (p.numPaths(d) == 0)
            continue;
        worst = std::min(worst, r.demand_throughput[d]);
        sum += r.demand_throughput[d];
        ++routed;
    }
    r.worst = routed ? worst : 0.0;
    r.average = routed ? sum / static_cast<double>(routed) : 0.0;
    return r;
}

/**
 * solveMaxConcurrentFlow before the exp memo and the branch-free
 * touched list (serial argmin; the pool only splits argmin, which
 * writes one slot per demand).
 */
FlowSolution
legacySolve(const FlowProblem &p, const SolveOptions &opt)
{
    FlowSolution sol;
    const std::int32_t nl = p.numLinks();
    sol.utilization.assign(static_cast<std::size_t>(nl), 0.0);
    sol.path_flow.assign(p.numPathsTotal(), 0.0);

    std::vector<std::size_t> active;
    for (std::size_t d = 0; d < p.numDemands(); ++d) {
        if (p.numPaths(d) > 0)
            active.push_back(d);
        else
            ++sol.unrouted_demands;
    }
    sol.routed_demands = active.size();
    if (active.empty()) {
        sol.converged = true;
        return sol;
    }

    std::vector<double> w(static_cast<std::size_t>(nl));
    std::vector<double> inv_cap(static_cast<std::size_t>(nl));
    std::vector<double> load(static_cast<std::size_t>(nl), 0.0);
    for (std::int32_t l = 0; l < nl; ++l) {
        inv_cap[l] = 1.0 / p.capacity(l);
        w[l] = inv_cap[l];
    }
    std::vector<double> raw_flow(p.numPathsTotal(), 0.0);
    std::vector<std::size_t> choice(active.size());
    std::vector<double> mincost(active.size());
    auto argmin = [&](std::size_t i) {
        std::size_t d = active[i];
        std::size_t pb = p.pathBegin(d), np = p.numPaths(d);
        double best = std::numeric_limits<double>::infinity();
        std::size_t bestp = pb;
        for (std::size_t q = pb; q < pb + np; ++q) {
            double c = 0.0;
            p.forEachLink(d, q, [&](std::int32_t l) { c += w[l]; });
            if (c < best) {
                best = c;
                bestp = q;
            }
        }
        choice[i] = bestp;
        mincost[i] = best;
    };

    const double log_eps = std::log1p(opt.epsilon);
    const auto block = static_cast<std::size_t>(opt.block);
    double congestion = 0.0;
    double dual_best = std::numeric_limits<double>::infinity();
    double wmax = *std::max_element(w.begin(), w.end());
    std::vector<std::int32_t> touched;
    std::vector<double> delta(static_cast<std::size_t>(nl), 0.0);

    int t = 0;
    bool converged = false;
    while (t < opt.max_phases && !converged) {
        ++t;
        for (std::size_t blo = 0; blo < active.size(); blo += block) {
            std::size_t bhi = std::min(blo + block, active.size());
            for (std::size_t i = blo; i < bhi; ++i)
                argmin(i);
            touched.clear();
            for (std::size_t i = blo; i < bhi; ++i) {
                double wt = p.weight(active[i]);
                std::size_t q = choice[i];
                raw_flow[q] += wt;
                p.forEachLink(active[i], q, [&](std::int32_t l) {
                    if (delta[l] == 0.0)
                        touched.push_back(l);
                    delta[l] += wt;
                });
            }
            for (std::int32_t l : touched) {
                load[l] += delta[l];
                congestion = std::max(congestion, load[l] * inv_cap[l]);
                double e = std::min(log_eps * delta[l] * inv_cap[l], 60.0);
                w[l] *= std::exp(e);
                wmax = std::max(wmax, w[l]);
                delta[l] = 0.0;
            }
            if (wmax > 1e200) {
                for (auto &x : w)
                    x /= wmax;
                wmax = 1.0;
            }
        }

        if (t % 10 == 0 || t == opt.max_phases) {
            for (std::size_t i = 0; i < active.size(); ++i)
                argmin(i);
            double dist_sum = 0.0;
            for (std::size_t i = 0; i < active.size(); ++i)
                dist_sum += p.weight(active[i]) * mincost[i];
            double cap_sum = 0.0;
            for (std::int32_t l = 0; l < nl; ++l)
                cap_sum += p.capacity(l) * w[l];
            if (dist_sum > 0.0)
                dual_best = std::min(dual_best, cap_sum / dist_sum);
            if (congestion > 0.0 &&
                t / congestion >= (1.0 - opt.epsilon) * dual_best)
                converged = true;
        }
    }

    sol.phases = t;
    sol.converged = converged;
    if (congestion <= 0.0)
        return sol;
    sol.throughput = t / congestion;
    sol.dual_bound = dual_best;
    double inv_cong = 1.0 / congestion;
    for (std::int32_t l = 0; l < nl; ++l)
        sol.utilization[l] = load[l] * inv_cap[l] * inv_cong;
    for (std::size_t q = 0; q < raw_flow.size(); ++q)
        sol.path_flow[q] = raw_flow[q] * inv_cong;
    return sol;
}

/**
 * Every observable of @p a equals that of @p b, bit for bit: links,
 * demands and each path's whole link sequence, however the two split
 * it between demand ends and path links.
 */
void
expectSameProblem(const FlowProblem &a, const FlowProblem &b,
                  const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(a.numLinks(), b.numLinks());
    ASSERT_EQ(a.numDemands(), b.numDemands());
    ASSERT_EQ(a.numPathsTotal(), b.numPathsTotal());
    for (std::int32_t l = 0; l < a.numLinks(); ++l)
        EXPECT_EQ(a.capacity(l), b.capacity(l)) << "link " << l;
    for (std::size_t d = 0; d < a.numDemands(); ++d) {
        EXPECT_EQ(a.weight(d), b.weight(d)) << "demand " << d;
        ASSERT_EQ(a.pathBegin(d), b.pathBegin(d)) << "demand " << d;
        ASSERT_EQ(a.numPaths(d), b.numPaths(d)) << "demand " << d;
        for (std::size_t q = a.pathBegin(d); q < a.pathBegin(d) + a.numPaths(d);
             ++q)
            EXPECT_EQ(linkSequence(a, d, q), linkSequence(b, d, q))
                << "demand " << d << " path " << q;
    }
}

/**
 * @p p in the format without end links: the same links and demands,
 * each path holding its whole link sequence.
 */
FlowProblem
withoutEnds(const FlowProblem &p)
{
    FlowProblem out;
    for (std::int32_t l = 0; l < p.numLinks(); ++l)
        out.addLink(p.capacity(l));
    for (std::size_t d = 0; d < p.numDemands(); ++d) {
        out.addDemand(p.weight(d));
        for (std::size_t q = p.pathBegin(d); q < p.pathBegin(d) + p.numPaths(d);
             ++q)
            out.addPath(linkSequence(p, d, q));
    }
    return out;
}

void
expectSameFluid(const EcmpFluidResult &a, const EcmpFluidResult &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.demand_throughput, b.demand_throughput);
    EXPECT_EQ(a.saturation, b.saturation);
    EXPECT_EQ(a.worst, b.worst);
    EXPECT_EQ(a.average, b.average);
}

void
expectSameSolution(const FlowSolution &a, const FlowSolution &b,
                   const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.dual_bound, b.dual_bound);
    EXPECT_EQ(a.phases, b.phases);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.routed_demands, b.routed_demands);
    EXPECT_EQ(a.unrouted_demands, b.unrouted_demands);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.path_flow, b.path_flow);
}

/** Every field of two sweeps but the timings, bit for bit. */
void
expectSameSweep(const QueueSweepResult &a, const QueueSweepResult &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.saturation, b.saturation);
    EXPECT_EQ(a.zero_load_latency, b.zero_load_latency);
    EXPECT_EQ(a.offered_weight, b.offered_weight);
    EXPECT_EQ(a.injection_util, b.injection_util);
    EXPECT_EQ(a.ejection_util, b.ejection_util);
    EXPECT_EQ(a.routed, b.routed);
    EXPECT_EQ(a.unrouted, b.unrouted);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const QueueLoadPoint &pa = a.points[i], &pb = b.points[i];
        EXPECT_EQ(pa.load, pb.load) << "point " << i;
        EXPECT_EQ(pa.saturated, pb.saturated) << "point " << i;
        EXPECT_EQ(pa.mean_latency, pb.mean_latency) << "point " << i;
        EXPECT_EQ(pa.p50_latency, pb.p50_latency) << "point " << i;
        EXPECT_EQ(pa.p99_latency, pb.p99_latency) << "point " << i;
        EXPECT_EQ(pa.max_utilization, pb.max_utilization) << "point " << i;
        EXPECT_EQ(pa.cdf_passes, pb.cdf_passes) << "point " << i;
        EXPECT_EQ(pa.mixture_components, pb.mixture_components)
            << "point " << i;
    }
}

/**
 * @p ends and @p flat are one instance, the first with demand end
 * links and the second without: the same whole link sequences, and
 * the solver, the ECMP fluid and an md1 queue sweep at four fractions
 * of the fluid saturation return the same bits on both.
 */
void
expectEncodingsAgree(const FlowProblem &ends, const FlowProblem &flat,
                     const std::string &what)
{
    expectSameProblem(ends, flat, what);
    SolveOptions opt;
    opt.block = 3;  // several frozen-weight blocks per phase
    opt.max_phases = 60;
    expectSameSolution(solveMaxConcurrentFlow(ends, opt),
                       solveMaxConcurrentFlow(flat, opt), what);
    const EcmpFluidResult fluid = ecmpFluid(ends);
    expectSameFluid(fluid, ecmpFluid(flat), what);
    ASSERT_GT(fluid.saturation, 0.0) << what;
    QueueSweepOptions qopt;
    for (double f : {0.25, 0.5, 0.75, 0.95})
        qopt.loads.push_back(std::min(1.0, f * fluid.saturation));
    const auto model = makeQueueModel("md1", qopt.pkt_phits);
    expectSameSweep(queueLatencySweep(ends, *model, qopt),
                    queueLatencySweep(flat, *model, qopt), what);
}

/** A named network. */
struct Net
{
    std::string name;
    FoldedClos fc;
};

/**
 * CFT, OFT and random RFC networks; the last has random links removed
 * so that some leaf pairs lose every up/down route.
 */
std::vector<Net>
networks()
{
    std::vector<Net> out;
    out.push_back({"CFT(4,3)", buildCft(4, 3)});
    out.push_back({"CFT(8,3)", buildCft(8, 3)});
    out.push_back({"OFT(2,3)", buildOft(2, 3)});
    out.push_back({"OFT(3,2)", buildOft(3, 2)});
    for (std::uint64_t seed : {11u, 12u}) {
        Rng rng(seed);
        out.push_back({"RFC(8,3,24) seed " + std::to_string(seed),
                       buildRfcUnchecked(8, 3, 24, rng)});
    }
    Rng rng(13);
    Net faulted{"RFC(6,3,14) minus 20 links",
                buildRfcUnchecked(6, 3, 14, rng)};
    removeRandomLinks(faulted.fc, 20, rng);
    out.push_back(std::move(faulted));
    return out;
}

/** Uniform, random-pairing and hand-made unequal-weight demand. */
std::vector<std::pair<std::string, DemandMatrix>>
demands(long long terminals)
{
    std::vector<std::pair<std::string, DemandMatrix>> out;
    out.emplace_back("uniform", makeDemandMatrix("uniform", terminals, 5, 2));
    out.emplace_back("random-pairing",
                     makeDemandMatrix("random-pairing", terminals, 6));
    DemandMatrix unequal;
    unequal.nodes = terminals;
    for (long long s = 0; s < terminals; ++s)
        for (long long k : {1LL, 3LL, terminals / 2 + 1}) {
            long long t = (s * 7 + k) % terminals;
            unequal.demands.push_back(
                {s, t, 0.1 * static_cast<double>(1 + (s * 5 + k) % 9)});
        }
    out.emplace_back("unequal", std::move(unequal));
    return out;
}

/**
 * A network whose oracle is built in place: either over a fault
 * overlay, which kills ports without rewiring (a dead link is a dead up
 * port at its lower switch and a dead down port at its upper one), or
 * with more than 64 ports on one side of a switch, which a next-hop
 * mask cannot hold.
 */
struct OracleNet
{
    std::string name;
    FoldedClos fc;
    LinkFaultState faults;
    UpDownOracle oracle;
};

/**
 * RFC(8,3,24) under an overlay with 16 dead links, and CFT(132,2),
 * whose leaves have 66 up ports and whose top switches 132 down ports.
 */
std::vector<std::unique_ptr<OracleNet>>
overlayAndWideNetworks()
{
    std::vector<std::unique_ptr<OracleNet>> out;
    auto faulted = std::make_unique<OracleNet>();
    faulted->name = "RFC(8,3,24) seed 21, overlay with 16 dead links";
    Rng rng(21);
    faulted->fc = buildRfcUnchecked(8, 3, 24, rng);
    faulted->faults = LinkFaultState(faulted->fc);
    const std::vector<ClosLink> links = faulted->fc.links();
    while (faulted->faults.deadLinks() < 16) {
        const ClosLink &l = links[rng.uniform(links.size())];
        faulted->faults.setLink(l.lower, l.upper, true);
    }
    faulted->oracle.build(faulted->fc, &faulted->faults);
    out.push_back(std::move(faulted));

    auto wide = std::make_unique<OracleNet>();
    wide->name = "CFT(132,2)";
    wide->fc = buildCft(132, 2);
    wide->oracle.build(wide->fc);
    out.push_back(std::move(wide));
    return out;
}

/**
 * Demand for the networks above: demands() on the RFC; on CFT(132,2),
 * whose 8712 terminals would make those matrices heavy for a replica
 * that keeps a vector per path, every 37th terminal sends unequal
 * weights to two others.
 */
std::vector<std::pair<std::string, DemandMatrix>>
demandsFor(const FoldedClos &fc)
{
    const long long terminals = fc.numTerminals();
    if (terminals <= 1024)
        return demands(terminals);
    DemandMatrix sparse;
    sparse.nodes = terminals;
    for (long long s = 0; s < terminals; s += 37)
        for (long long k : {1LL, terminals / 2 + 1})
            sparse.demands.push_back(
                {s, (s * 7 + k) % terminals,
                 0.1 * static_cast<double>(1 + (s * 5 + k) % 9)});
    std::sort(sparse.demands.begin(), sparse.demands.end(),
              [](const Demand &a, const Demand &b) {
                  return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
              });
    std::vector<std::pair<std::string, DemandMatrix>> out;
    out.emplace_back("sparse unequal", std::move(sparse));
    return out;
}

/**
 * Every hop of every path in @p set leaves its switch through a live
 * port that joins it to the next switch of the path.
 */
void
expectPortsJoinSwitches(const FoldedClos &fc, const UpDownOracle &oracle,
                        const LeafPairPaths &set, const std::string &what)
{
    const LinkFaultState *faults = oracle.faultOverlay();
    for (std::size_t i = 0; i < set.size(); ++i)
        for (int h = 0; h < set.hops(); ++h) {
            const int s = set.switches(i)[h];
            const int t = set.switches(i)[h + 1];
            const auto port = static_cast<std::size_t>(set.ports(i)[h]);
            const std::size_t ups = fc.up(s).size();
            if (port < ups) {
                EXPECT_EQ(fc.up(s)[port], t) << what << " hop " << h;
                EXPECT_FALSE(faults && faults->upDead(s, port)) << what;
            } else {
                ASSERT_LT(port - ups, fc.down(s).size()) << what;
                EXPECT_EQ(fc.down(s)[port - ups], t) << what << " hop " << h;
                EXPECT_FALSE(faults && faults->downDead(s, port - ups))
                    << what;
            }
        }
}

/**
 * Every leaf pair from every @p src_step-th source leaf: the
 * enumerator's switch sequences equal the replica's, the scratch
 * reused across pairs gives the same paths as a fresh one, and every
 * reported port joins its hop's switches.
 */
void
expectPathsMatch(const std::string &name, const FoldedClos &fc,
                 const UpDownOracle &oracle, std::initializer_list<int> caps,
                 int src_step = 1)
{
    for (int cap : caps) {
        SCOPED_TRACE(name + " cap " + std::to_string(cap));
        const UpDownEcmpPaths paths(fc, oracle, cap, 99);
        const LegacyPaths legacy(fc, oracle, cap, 99);
        std::vector<Path> want;
        LeafPairPaths reused;
        for (int a = 0; a < fc.numLeaves(); a += src_step)
            for (int b = 0; b < fc.numLeaves(); ++b) {
                const std::string pair =
                    "leaves " + std::to_string(a) + " -> " + std::to_string(b);
                const std::vector<Path> got = switchPaths(paths, a, b);
                legacy.paths(a, b, want);
                EXPECT_EQ(got, want) << pair;
                paths.paths(a, b, reused);
                ASSERT_EQ(reused.size(), got.size()) << pair;
                for (std::size_t i = 0; i < got.size(); ++i)
                    EXPECT_EQ(Path(reused.switches(i),
                                   reused.switches(i) + reused.hops() + 1),
                              got[i])
                        << pair;
                expectPortsJoinSwitches(fc, oracle, reused, pair);
            }
    }
}

TEST(FlowLegacyEquivalence, PathsMatchAlwaysEnumerateFirst)
{
    for (const Net &net : networks()) {
        UpDownOracle oracle(net.fc);
        expectPathsMatch(net.name, net.fc, oracle, {1, 4, 8, 64});
    }
    // CFT(132,2) has 17,424 leaf pairs; from every 11th source leaf
    // the paths still cross both wide sides, at a tenth of the cost.
    for (const auto &net : overlayAndWideNetworks())
        expectPathsMatch(net->name, net->fc, net->oracle, {1, 2, 8, 64},
                         net->fc.numLeaves() > 64 ? 11 : 1);
}

/**
 * buildClosFlowProblem at every wave width a test pool gives (serial,
 * then 1, 2 and 3 workers: waves of 1 to 4 ranges) against the
 * replica, and its ECMP fluid against the replica fluid.  Returns the
 * number of demands without a candidate path.
 */
std::size_t
expectProblemMatches(const std::string &what, const FoldedClos &fc,
                     const UpDownOracle &oracle, const DemandMatrix &dm,
                     int cap)
{
    static ThreadPool pool1(1), pool2(2), pool3(3);
    const UpDownEcmpPaths paths(fc, oracle, cap, 7);
    const LegacyPaths legacy_paths(fc, oracle, cap, 7);
    const FlowProblem want = legacyBuild(fc, legacy_paths, dm);
    const EcmpFluidResult want_fluid = legacyEcmpFluid(want);
    for (ThreadPool *pool : {static_cast<ThreadPool *>(nullptr), &pool1,
                             &pool2, &pool3}) {
        const std::string where =
            what + (pool ? " pool " + std::to_string(pool->size())
                         : " serial");
        const FlowProblem got = buildClosFlowProblem(fc, paths, dm, pool);
        expectSameProblem(got, want, where);
        // Every demand's terminal links are its ends, stored once.
        for (std::size_t d = 0; d < got.numDemands(); ++d) {
            EXPECT_GE(got.srcLink(d), 0) << where << " demand " << d;
            EXPECT_GE(got.dstLink(d), 0) << where << " demand " << d;
        }
        expectSameFluid(ecmpFluid(got), want_fluid, where);
    }
    std::size_t unrouted = 0;
    for (std::size_t d = 0; d < want.numDemands(); ++d)
        unrouted += want.numPaths(d) == 0 ? 1 : 0;
    return unrouted;
}

TEST(FlowLegacyEquivalence, ProblemAndFluidMatchLegacy)
{
    std::size_t unrouted = 0, cases = 0;
    for (const Net &net : networks()) {
        UpDownOracle oracle(net.fc);
        for (const auto &[pattern, dm] : demands(net.fc.numTerminals()))
            for (int cap : {1, 4, 8, 64}) {
                unrouted += expectProblemMatches(
                    net.name + " " + pattern + " cap " + std::to_string(cap),
                    net.fc, oracle, dm, cap);
                ++cases;
            }
    }
    EXPECT_EQ(cases, 7u * 3u * 4u);
    // The faulted RFC must exercise demands without a candidate path.
    EXPECT_GT(unrouted, 0u);

    cases = 0;
    for (const auto &net : overlayAndWideNetworks())
        for (const auto &[pattern, dm] : demandsFor(net->fc))
            for (int cap : {1, 2, 8, 64}) {
                expectProblemMatches(net->name + " " + pattern + " cap " +
                                         std::to_string(cap),
                                     net->fc, net->oracle, dm, cap);
                ++cases;
            }
    EXPECT_EQ(cases, (3u + 1u) * 4u);
}

TEST(FlowLegacyEquivalence, ProblemIsWaveWidthInvariant)
{
    // Fewer demands than the 32 ranges (most ranges empty, so most
    // waves merge nothing), one more than a range per demand, and
    // demands with no candidate path on the faulted networks.
    std::size_t unrouted = 0;
    auto check = [&](const std::string &name, const FoldedClos &fc,
                     const UpDownOracle &oracle) {
        const DemandMatrix all =
            makeDemandMatrix("random-pairing", fc.numTerminals(), 4);
        for (std::size_t n : {1u, 5u, 31u, 33u}) {
            DemandMatrix dm;
            dm.nodes = all.nodes;
            // Spread the picks so that they reach far-apart leaves.
            for (std::size_t k = 0; k < n; ++k)
                dm.demands.push_back(
                    all.demands[k * all.demands.size() / n]);
            unrouted += expectProblemMatches(
                name + " " + std::to_string(n) + " demands", fc, oracle,
                dm, 4);
        }
    };
    for (const Net &net : networks()) {
        UpDownOracle oracle(net.fc);
        check(net.name, net.fc, oracle);
    }
    for (const auto &net : overlayAndWideNetworks())
        check(net->name, net->fc, net->oracle);
    EXPECT_GT(unrouted, 0u);
}

TEST(FlowLegacyEquivalence, FluidMatchesOnHandMadeProblems)
{
    // Paths of unequal length, repeated links inside a path, links no
    // demand crosses, capacities other than 1, unroutable demands and
    // fewer demands than ranges.
    FlowProblem p;
    for (int l = 0; l < 9; ++l)
        p.addLink(l % 3 == 0 ? 2.5 : 1.0);
    p.addDemand(0.7);
    p.addPath({0, 1, 2});
    p.addPath({0, 3});
    p.addPath({4, 4, 5, 6});
    p.addDemand(1.3);
    p.addDemand(0.2);
    p.addPath({6, 2, 0});
    p.addDemand(3.0);
    p.addPath({8});
    expectSameFluid(ecmpFluid(p), legacyEcmpFluid(p), "hand-made");

    FlowProblem empty;
    empty.addLink(1.0);
    expectSameFluid(ecmpFluid(empty), legacyEcmpFluid(empty), "no demand");
}

/**
 * Random paths over links of random capacity in [0.5, 3.5) and demands
 * of random weight: nearly every weight update has its own exponent,
 * far more than the memo has slots.
 */
FlowProblem
irregularProblem(std::uint64_t seed)
{
    Rng rng(seed);
    FlowProblem p;
    const int links = 300;
    for (int l = 0; l < links; ++l)
        p.addLink(0.5 + 3.0 * rng.uniformReal());
    for (int d = 0; d < 400; ++d) {
        p.addDemand(0.05 + 2.0 * rng.uniformReal());
        const auto np = 1 + rng.uniform(4);
        for (std::uint64_t k = 0; k < np; ++k) {
            std::vector<std::int32_t> path(1 + rng.uniform(6));
            for (auto &l : path)
                l = static_cast<std::int32_t>(rng.uniform(links));
            p.addPath(path);
        }
    }
    return p;
}

/**
 * Demands far above their links' capacities: each update takes the
 * capped exponent 60, so the largest weight passes 1e200 within a
 * few phases and the uniform rescale runs.
 */
FlowProblem
rescaleProblem()
{
    FlowProblem p;
    for (double cap : {1.0, 0.25, 2.0, 1.0})
        p.addLink(cap);
    p.addDemand(1e5);
    p.addPath({0, 1});
    p.addPath({2});
    p.addDemand(7e4);
    p.addPath({1, 3});
    p.addPath({3});
    p.addDemand(50.0);
    p.addPath({2, 3});
    return p;
}

TEST(FlowLegacyEquivalence, SolverMatchesLegacy)
{
    ThreadPool pool3(3);
    auto check = [&](const FlowProblem &prob, SolveOptions opt,
                     const std::string &what) {
        const FlowSolution want = legacySolve(prob, opt);
        for (ThreadPool *pool :
             {static_cast<ThreadPool *>(nullptr), &pool3}) {
            opt.pool = pool;
            expectSameSolution(solveMaxConcurrentFlow(prob, opt), want,
                               what + (pool ? " pool 3" : " serial"));
        }
    };

    std::size_t cases = 0;
    for (const Net &net : networks()) {
        UpDownOracle oracle(net.fc);
        const UpDownEcmpPaths paths(net.fc, oracle, 8, 7);
        for (const auto &[pattern, dm] : demands(net.fc.numTerminals())) {
            if (pattern == "unequal")
                continue;
            const FlowProblem prob = buildClosFlowProblem(net.fc, paths, dm);
            SolveOptions opt;
            opt.block = 64;  // several frozen-weight blocks per phase
            check(prob, opt, net.name + " " + pattern);
            ++cases;
        }
    }
    EXPECT_EQ(cases, 7u * 2u);

    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SolveOptions opt;
        opt.epsilon = 0.02;
        opt.block = 50;
        opt.max_phases = 120;
        check(irregularProblem(seed), opt,
              "irregular seed " + std::to_string(seed));
    }

    const FlowProblem huge = rescaleProblem();
    SolveOptions opt;
    opt.epsilon = 0.01;
    opt.max_phases = 40;
    opt.block = 1;
    check(huge, opt, "rescale");
    // The case only tests the rescale if the weights really passed the
    // threshold: without a rescale they would have overflowed to inf.
    const FlowSolution sol = legacySolve(huge, opt);
    EXPECT_GE(sol.phases, 10);
    EXPECT_TRUE(std::isfinite(sol.dual_bound));
    EXPECT_GT(sol.throughput, 0.0);
}

TEST(FlowLegacyEquivalence, EndLinkEncodingIsBitIdentical)
{
    // CFT, OFT and RFC shapes, the faulted RFC with unrouted demands.
    std::size_t cases = 0;
    for (const Net &net : networks()) {
        UpDownOracle oracle(net.fc);
        const UpDownEcmpPaths paths(net.fc, oracle, 8, 7);
        for (const auto &[pattern, dm] : demands(net.fc.numTerminals())) {
            if (pattern == "unequal")
                continue;
            const FlowProblem prob = buildClosFlowProblem(net.fc, paths, dm);
            expectEncodingsAgree(prob, withoutEnds(prob),
                                 net.name + " " + pattern);
            ++cases;
        }
    }
    EXPECT_EQ(cases, 7u * 2u);
}

TEST(FlowLegacyEquivalence, HandMadeEndsMatchInlinedEnds)
{
    // Demands with both ends, one end, none, and the same link at both
    // ends; a path of no stored link, a link repeated inside a path and
    // a path link equal to an end; capacities other than 1; and a
    // demand with ends but no path.
    const std::vector<double> caps = {1.0, 2.5, 0.5, 1.0,
                                      3.0, 1.0, 0.75, 1.5};
    FlowProblem ends, flat;
    for (double c : caps) {
        ends.addLink(c);
        flat.addLink(c);
    }
    ends.addDemand(0.7, 0, 1);
    ends.addPath({2, 3});
    ends.addPath({4});
    ends.addPath({});
    flat.addDemand(0.7);
    flat.addPath({0, 2, 3, 1});
    flat.addPath({0, 4, 1});
    flat.addPath({0, 1});

    ends.addDemand(1.3, 5);
    ends.addPath({6});
    ends.addPath({2, 2});
    flat.addDemand(1.3);
    flat.addPath({5, 6});
    flat.addPath({5, 2, 2});

    ends.addDemand(0.2, -1, 7);
    ends.addPath({3, 0});
    flat.addDemand(0.2);
    flat.addPath({3, 0, 7});

    ends.addDemand(3.0);
    ends.addPath({1});
    flat.addDemand(3.0);
    flat.addPath({1});

    ends.addDemand(0.9, 0, 7);  // no candidate path: unrouted
    flat.addDemand(0.9);

    ends.addDemand(0.4, 1, 1);
    ends.addPath({1});
    flat.addDemand(0.4);
    flat.addPath({1, 1, 1});

    expectEncodingsAgree(ends, flat, "hand-made");
    expectSameProblem(withoutEnds(ends), flat, "hand-made, ends inlined");
}

} // namespace
} // namespace rfc
