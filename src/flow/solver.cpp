#include "flow/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "util/threadpool.hpp"

namespace rfc {

std::int32_t
FlowProblem::addLink(double capacity)
{
    if (!(capacity > 0.0) || !std::isfinite(capacity))
        throw std::invalid_argument(
            "FlowProblem: link capacity must be finite and > 0, got " +
            std::to_string(capacity));
    cap_.push_back(capacity);
    return static_cast<std::int32_t>(cap_.size() - 1);
}

std::size_t
FlowProblem::addDemand(double weight, std::int32_t src_link,
                       std::int32_t dst_link)
{
    if (!(weight > 0.0) || !std::isfinite(weight))
        throw std::invalid_argument(
            "FlowProblem: demand weight must be finite and > 0, got " +
            std::to_string(weight));
    for (std::int32_t l : {src_link, dst_link})
        if (l < -1 || l >= numLinks())
            throw std::out_of_range(
                "FlowProblem: bad end link id " + std::to_string(l) +
                " for a demand (" + std::to_string(numLinks()) + " links)");
    weight_.push_back(weight);
    src_link_.push_back(src_link);
    dst_link_.push_back(dst_link);
    first_path_.push_back(static_cast<std::int32_t>(numPathsTotal()));
    return weight_.size() - 1;
}

void
FlowProblem::addPath(const std::vector<std::int32_t> &links)
{
    addPath(links.data(), links.size());
}

void
FlowProblem::addPath(const std::int32_t *links, std::size_t n)
{
    if (weight_.empty())
        throw std::logic_error("FlowProblem: addPath before addDemand");
    if (n == 0 && src_link_.back() < 0 && dst_link_.back() < 0)
        throw std::invalid_argument(
            "FlowProblem: empty path for a demand without an end link");
    for (std::size_t k = 0; k < n; ++k)
        if (links[k] < 0 || links[k] >= numLinks())
            throw std::out_of_range("FlowProblem: bad link id in path");
    constexpr auto kMax =
        static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
    if (n > kMax - path_links_.size() || numPathsTotal() >= kMax)
        throw std::length_error(
            "FlowProblem: more than INT32_MAX paths or path link entries");
    path_links_.insert(path_links_.end(), links, links + n);
    path_off_.push_back(static_cast<std::int32_t>(path_links_.size()));
}

namespace {

/**
 * Fixed demand ranges of the path assembly and the ECMP fluid: work
 * is split and merged by range index, never by thread, so results are
 * bit-identical at any pool size.
 */
constexpr std::size_t kRanges = 32;

/** First demand of range @p rg out of @p nd demands. */
std::size_t
rangeBegin(std::size_t nd, std::size_t rg)
{
    return nd * rg / kRanges;
}

/**
 * One demand range's candidate paths as rows of switch links (the
 * merge adds each demand's injection and ejection links as its ends,
 * in demand order).
 */
struct RangePaths
{
    std::vector<std::int32_t> links;
    std::vector<std::int32_t> demand_paths;  //!< per demand: path count
    std::vector<std::int32_t> demand_hops;   //!< per demand: hops per path
};

/**
 * Throws std::invalid_argument, prefixed by @p who, at the first
 * demand of @p dm with an endpoint outside fc's terminals.
 */
void
requireTerminals(const char *who, const FoldedClos &fc,
                 const DemandMatrix &dm)
{
    const long long n = fc.numTerminals();
    for (std::size_t i = 0; i < dm.demands.size(); ++i)
        for (long long t : {dm.demands[i].src, dm.demands[i].dst})
            if (t < 0 || t >= n)
                throw std::invalid_argument(
                    std::string(who) + ": demand " + std::to_string(i) +
                    " has endpoint " + std::to_string(t) +
                    ", outside the network's " + std::to_string(n) +
                    " terminals");
}

/** Phases between dual-bound evaluations. */
constexpr int kDualEvery = 10;

/**
 * Memo of std::exp over the weight-update exponents: a direct-mapped
 * table of (argument, value) slots indexed by a hash of the argument's
 * bits.  A slot answers only for the exact argument it stores (args
 * start as NaN, which equals nothing), so a collision costs one exp
 * call and never a wrong value.  Unit capacities and equal demand
 * weights leave only a few distinct exponents per solve.
 */
class ExpMemo
{
  public:
    ExpMemo()
    {
        std::fill(std::begin(arg_), std::end(arg_),
                  std::numeric_limits<double>::quiet_NaN());
    }

    double
    operator()(double e)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &e, sizeof bits);
        const std::size_t s = (bits * 0x9e3779b97f4a7c15ULL) >> 56;
        if (arg_[s] != e) {
            arg_[s] = e;
            val_[s] = std::exp(e);
        }
        return val_[s];
    }

  private:
    double arg_[256];
    double val_[256];
};

void
requireAtLeastOne(const char *field, int value)
{
    if (value < 1)
        throw std::invalid_argument(
            std::string("solveMaxConcurrentFlow: ") + field +
            " must be >= 1, got " + std::to_string(value));
}

} // namespace

FlowProblem
buildClosFlowProblem(const FoldedClos &fc, const UpDownEcmpPaths &paths,
                     const DemandMatrix &dm, ThreadPool *pool)
{
    requireTerminals("buildClosFlowProblem", fc, dm);
    // Directed link ids: per switch s, up ports first then down ports,
    // at base offset off[s] (one id per port, matching the simulator's
    // one-phit-per-cycle-per-direction links), so a hop's link is its
    // switch's base plus the port the enumerator reports.
    const int n = fc.numSwitches();
    std::vector<std::int64_t> off(static_cast<std::size_t>(n) + 1, 0);
    for (int s = 0; s < n; ++s)
        off[s + 1] = off[s] + static_cast<std::int64_t>(fc.up(s).size()) +
                     static_cast<std::int64_t>(fc.down(s).size());

    FlowProblem prob;
    for (std::int64_t l = 0; l < off[n]; ++l)
        prob.addLink(1.0);

    // Enumerate candidate paths over fixed demand ranges in waves
    // (parallel within a wave) into switch-link rows, then append each
    // range in demand order, registering terminal links at their first
    // demand (serial, hence deterministic).
    const std::size_t nd = dm.demands.size();
    std::unordered_map<long long, std::int32_t> inj, ej;
    parallelWaves<RangePaths>(
        pool, kRanges,
        [&](std::size_t rg, RangePaths &part) {
            const std::size_t lo = rangeBegin(nd, rg);
            const std::size_t hi = rangeBegin(nd, rg + 1);
            part.demand_paths.reserve(hi - lo);
            part.demand_hops.reserve(hi - lo);
            LeafPairPaths ps;
            for (std::size_t i = lo; i < hi; ++i) {
                const Demand &d = dm.demands[i];
                paths.paths(fc.leafOfTerminal(d.src),
                            fc.leafOfTerminal(d.dst), ps);
                part.demand_paths.push_back(
                    static_cast<std::int32_t>(ps.size()));
                part.demand_hops.push_back(ps.hops());
                for (std::size_t k = 0; k < ps.size(); ++k) {
                    const int *sw = ps.switches(k);
                    const int *port = ps.ports(k);
                    for (int h = 0; h < ps.hops(); ++h)
                        part.links.push_back(
                            static_cast<std::int32_t>(off[sw[h]] + port[h]));
                }
            }
        },
        [&](std::size_t rg, RangePaths &part) {
            const std::size_t lo = rangeBegin(nd, rg);
            const std::size_t hi = rangeBegin(nd, rg + 1);
            const std::int32_t *row = part.links.data();
            for (std::size_t i = lo; i < hi; ++i) {
                const Demand &d = dm.demands[i];
                auto [ii, inew] = inj.try_emplace(d.src, 0);
                if (inew)
                    ii->second = prob.addLink(1.0);
                auto [ei, enew] = ej.try_emplace(d.dst, 0);
                if (enew)
                    ei->second = prob.addLink(1.0);
                prob.addDemand(d.weight, ii->second, ei->second);
                const auto len =
                    static_cast<std::size_t>(part.demand_hops[i - lo]);
                for (std::int32_t k = 0; k < part.demand_paths[i - lo]; ++k) {
                    prob.addPath(row, len);
                    row += len;
                }
            }
        });
    return prob;
}

FlowSolution
solveMaxConcurrentFlow(const FlowProblem &p, const SolveOptions &opt)
{
    if (!(opt.epsilon > 0.0 && opt.epsilon < 1.0))
        throw std::invalid_argument(
            "solveMaxConcurrentFlow: epsilon must be in (0, 1), got " +
            std::to_string(opt.epsilon));
    requireAtLeastOne("max_phases", opt.max_phases);
    requireAtLeastOne("block", opt.block);

    FlowSolution sol;
    const std::int32_t nl = p.numLinks();
    sol.utilization.assign(static_cast<std::size_t>(nl), 0.0);
    sol.path_flow.assign(p.numPathsTotal(), 0.0);

    std::vector<std::size_t> active;
    active.reserve(p.numDemands());
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

    // sol.path_flow holds each path's raw phase flow until the end.
    std::vector<std::size_t> choice(active.size());
    std::vector<double> mincost(active.size());

    // Cheapest candidate path of active demand i under current w;
    // ties go to the lowest path id (determinism).
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

    // One slot per link plus the spare the unconditional write below
    // may land in once every link is listed.
    std::vector<std::int32_t> touched(static_cast<std::size_t>(nl) + 1);
    std::vector<double> delta(static_cast<std::size_t>(nl), 0.0);
    ExpMemo exp_memo;

    int t = 0;
    bool converged = false;
    while (t < opt.max_phases && !converged) {
        ++t;
        for (std::size_t blo = 0; blo < active.size(); blo += block) {
            std::size_t bhi = std::min(blo + block, active.size());
            parallelFor(opt.pool, bhi - blo,
                        [&](std::size_t k) { argmin(blo + k); });
            // Each link joins the touched list on its first hop in
            // the block (delta is still 0 there, and wt > 0 keeps it
            // nonzero after); the write is unconditional and only the
            // count depends on the test, so the hop loop has no branch.
            std::size_t nt = 0;
            for (std::size_t i = blo; i < bhi; ++i) {
                const std::size_t d = active[i];
                const double wt = p.weight(d);
                const std::size_t q = choice[i];
                sol.path_flow[q] += wt;
                p.forEachLink(d, q, [&](std::int32_t l) {
                    touched[nt] = l;
                    nt += delta[l] == 0.0;
                    delta[l] += wt;
                });
            }
            for (std::size_t j = 0; j < nt; ++j) {
                const std::int32_t l = touched[j];
                load[l] += delta[l];
                congestion = std::max(congestion, load[l] * inv_cap[l]);
                // Exponent-proportional multiplicative update; the cap
                // keeps one grossly oversubscribed block from
                // overflowing (any positive weights stay a valid dual).
                double e = std::min(log_eps * delta[l] * inv_cap[l], 60.0);
                w[l] *= exp_memo(e);
                wmax = std::max(wmax, w[l]);
                delta[l] = 0.0;
            }
            // Uniform rescale preserves argmin order and dual ratios.
            if (wmax > 1e200) {
                for (auto &x : w)
                    x /= wmax;
                wmax = 1.0;
            }
        }

        if (t % kDualEvery == 0 || t == opt.max_phases) {
            parallelFor(opt.pool, active.size(), argmin);
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
        return sol;  // paths with no capacitated links cannot occur
    sol.throughput = t / congestion;
    sol.dual_bound = dual_best;
    double inv_cong = 1.0 / congestion;
    for (std::int32_t l = 0; l < nl; ++l)
        sol.utilization[l] = load[l] * inv_cap[l] * inv_cong;
    // Phase flow scaled by worst congestion: demand d's paths carry
    // t * w_d / congestion = lambda * w_d in total.
    for (double &f : sol.path_flow)
        f *= inv_cong;
    return sol;
}

std::vector<double>
ecmpLinkUtilization(const FlowProblem &p)
{
    const std::size_t nd = p.numDemands();
    const std::int32_t nl = p.numLinks();
    std::vector<double> util(static_cast<std::size_t>(nl), 0.0);

    // Link-load accumulation over a fixed demand partition: each range
    // sums its contributions per link in demand order into a dense
    // scratch array, then adds every link it touched into util; ranges
    // merge in index order.  Per link this is the association of a
    // per-range reduction sorted by link (0.0 + x == x), which the
    // output is pinned to (DESIGN.md 4.8).
    std::vector<double> acc(static_cast<std::size_t>(nl), 0.0);
    std::vector<std::int32_t> touched;
    for (std::size_t rg = 0; rg < kRanges; ++rg) {
        touched.clear();
        for (std::size_t d = rangeBegin(nd, rg); d < rangeBegin(nd, rg + 1);
             ++d) {
            std::size_t np = p.numPaths(d);
            if (np == 0)
                continue;
            double c = p.weight(d) / static_cast<double>(np);
            std::size_t pb = p.pathBegin(d);
            for (std::size_t q = pb; q < pb + np; ++q)
                p.forEachLink(d, q, [&](std::int32_t l) {
                    if (acc[l] == 0.0)
                        touched.push_back(l);
                    acc[l] += c;
                });
        }
        for (std::int32_t l : touched) {
            util[l] += acc[l];
            acc[l] = 0.0;
        }
    }
    for (std::int32_t l = 0; l < nl; ++l)
        util[l] /= p.capacity(l);
    return util;
}

EcmpFluidResult
ecmpFluid(const FlowProblem &p)
{
    EcmpFluidResult r;
    const std::size_t nd = p.numDemands();
    r.utilization = ecmpLinkUtilization(p);
    r.demand_throughput.assign(nd, 0.0);
    if (nd == 0)
        return r;

    double maxu = 0.0;
    for (double u : r.utilization)
        maxu = std::max(maxu, u);
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

double
cutThroughputBound(const FoldedClos &fc, const UpDownOracle &oracle,
                   const DemandMatrix &dm, const DynBitset &leaf_in_a)
{
    requireTerminals("cutThroughputBound", fc, dm);
    const int n = fc.numSwitches();
    const int leaves = fc.numLeaves();
    std::vector<char> side(static_cast<std::size_t>(n));
    for (int s = 0; s < leaves; ++s)
        side[s] = leaf_in_a.test(static_cast<std::size_t>(s)) ? 0 : 1;
    for (int s = leaves; s < n; ++s) {
        DynBitset b = oracle.below(s);
        std::size_t total = b.count();
        b &= leaf_in_a;
        side[s] = 2 * b.count() >= total ? 0 : 1;
    }

    double cut = 0.0;
    for (const ClosLink &lk : fc.links())
        if (side[lk.lower] != side[lk.upper])
            cut += 1.0;

    double dem_ab = 0.0, dem_ba = 0.0;
    for (const Demand &d : dm.demands) {
        char sa = side[fc.leafOfTerminal(d.src)];
        char sb = side[fc.leafOfTerminal(d.dst)];
        if (sa == 0 && sb == 1)
            dem_ab += d.weight;
        else if (sa == 1 && sb == 0)
            dem_ba += d.weight;
    }
    double bound = std::numeric_limits<double>::infinity();
    if (dem_ab > 0.0)
        bound = std::min(bound, cut / dem_ab);
    if (dem_ba > 0.0)
        bound = std::min(bound, cut / dem_ba);
    return bound;
}

} // namespace rfc
