#include "sim/sweep.hpp"

#include <stdexcept>

namespace rfc {

namespace {

/**
 * Adapter presenting a caller-owned Traffic as a factory product.
 * Only valid in serial mode (jobs = 1): the underlying pattern is
 * stateful and re-initialized by every Simulator run.
 */
class BorrowedTraffic : public Traffic
{
  public:
    explicit BorrowedTraffic(Traffic &inner) : inner_(inner) {}

    void
    init(long long nodes, Rng &rng) override
    {
        inner_.init(nodes, rng);
    }

    long long
    dest(long long src, Rng &rng) override
    {
        return inner_.dest(src, rng);
    }

    std::string
    name() const override
    {
        return inner_.name();
    }

  private:
    Traffic &inner_;
};

std::vector<SimResult>
sweepOnEngine(const FoldedClos &fc, const UpDownOracle &oracle,
              const TrafficFactory &traffic, const SimConfig &base,
              const std::vector<double> &loads, int repetitions,
              int jobs)
{
    ExperimentGrid grid;
    grid.addNetwork(fc.name(), fc, oracle);
    grid.addTraffic("traffic", traffic);
    grid.loads = loads;
    grid.base = base;
    grid.repetitions = repetitions;

    ExperimentEngine engine(jobs, base.seed);
    auto points = engine.run(grid).points;

    std::vector<SimResult> out;
    out.reserve(points.size());
    for (const auto &p : points)
        out.push_back(p.toSimResult());
    return out;
}

} // namespace

std::vector<SimResult>
runLoadSweep(const FoldedClos &fc, const UpDownOracle &oracle,
             Traffic &traffic, const SimConfig &base,
             const std::vector<double> &loads, int repetitions)
{
    TrafficFactory borrow = [&traffic]() {
        return std::make_unique<BorrowedTraffic>(traffic);
    };
    return sweepOnEngine(fc, oracle, borrow, base, loads, repetitions,
                         /*jobs=*/1);
}

std::vector<SimResult>
runLoadSweep(const FoldedClos &fc, const UpDownOracle &oracle,
             const TrafficFactory &traffic, const SimConfig &base,
             const std::vector<double> &loads, int repetitions,
             int jobs)
{
    return sweepOnEngine(fc, oracle, traffic, base, loads, repetitions,
                         jobs);
}

SimResult
saturationThroughput(const FoldedClos &fc, const UpDownOracle &oracle,
                     Traffic &traffic, SimConfig base, int repetitions)
{
    TrafficFactory borrow = [&traffic]() {
        return std::make_unique<BorrowedTraffic>(traffic);
    };
    return saturationThroughput(fc, oracle, borrow, base, repetitions,
                                /*jobs=*/1);
}

SimResult
saturationThroughput(const FoldedClos &fc, const UpDownOracle &oracle,
                     const TrafficFactory &traffic, SimConfig base,
                     int repetitions, int jobs)
{
    base.load = 1.0;
    auto series = sweepOnEngine(fc, oracle, traffic, base, {1.0},
                                repetitions, jobs);
    return series.front();
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

} // namespace rfc
