/**
 * @file
 * Microbenchmarks (google-benchmark) of the VCT flow-control core -
 * the inject/route/arbitrate/drain hot loop that dominates Figures
 * 8-10, 12.  The headline counter is cycles_per_sec: simulated
 * cycles retired per wall-clock second, the number future PRs watch
 * for regressions.  Rows vary the shard count (one worker thread
 * unless jobs is raised) to expose the shard partition overhead and
 * the intra-trial parallel speedup.
 */
#include <benchmark/benchmark.h>

#include "clos/fat_tree.hpp"
#include "graph/random_regular.hpp"
#include "routing/ksp_tables.hpp"
#include "routing/updown.hpp"
#include "sim/direct.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace {

constexpr long long kWarmup = 200;
constexpr long long kMeasure = 1200;

rfc::SimConfig
hotConfig(double load, int shards, int jobs)
{
    rfc::SimConfig cfg;
    cfg.warmup = kWarmup;
    cfg.measure = kMeasure;
    cfg.load = load;
    cfg.seed = 99;
    cfg.shards = shards;
    cfg.jobs = jobs;
    return cfg;
}

void
reportCycleRate(benchmark::State &state, long long delivered)
{
    state.counters["cycles_per_sec"] = benchmark::Counter(
        static_cast<double>((kWarmup + kMeasure) * state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["delivered"] =
        static_cast<double>(delivered) /
        static_cast<double>(state.iterations());
}

/** Folded Clos hot loop: radix-16 3-level CFT, 1024 terminals. */
void
BM_IndirectHotLoop(benchmark::State &state)
{
    const double load = static_cast<double>(state.range(0)) / 100.0;
    const int shards = static_cast<int>(state.range(1));
    const int jobs = static_cast<int>(state.range(2));
    auto fc = rfc::buildCft(16, 3);
    rfc::UpDownOracle oracle(fc);
    long long delivered = 0;
    for (auto _ : state) {
        rfc::UniformTraffic traffic;
        rfc::Simulator sim(fc, oracle, traffic,
                           hotConfig(load, shards, jobs));
        auto r = sim.run();
        delivered += r.delivered_packets;
        benchmark::DoNotOptimize(r.accepted);
    }
    reportCycleRate(state, delivered);
}
BENCHMARK(BM_IndirectHotLoop)
    ->ArgNames({"load%", "shards", "jobs"})
    ->Args({50, 1, 1})   // default engine, mid load
    ->Args({90, 1, 1})   // default engine, saturated
    ->Args({90, 4, 1})   // shard partition overhead at one thread
    ->Args({90, 4, 4})   // intra-trial parallel speedup
    ->Unit(benchmark::kMillisecond);

/** Direct-network hot loop: 64-switch RRN, KSP + hop-escalating VCs. */
void
BM_DirectHotLoop(benchmark::State &state)
{
    const double load = static_cast<double>(state.range(0)) / 100.0;
    const int shards = static_cast<int>(state.range(1));
    const int jobs = static_cast<int>(state.range(2));
    rfc::Rng grng(4);
    rfc::Graph g = rfc::randomRegularGraph(64, 8, grng);
    rfc::KspRoutes routes(g, 4);
    rfc::SimConfig cfg = hotConfig(load, shards, jobs);
    cfg.vcs = std::max(4, routes.maxHops());
    long long delivered = 0;
    for (auto _ : state) {
        rfc::UniformTraffic traffic;
        rfc::DirectSimulator sim(g, routes, 8, traffic, cfg);
        auto r = sim.run();
        delivered += r.delivered_packets;
        benchmark::DoNotOptimize(r.accepted);
    }
    reportCycleRate(state, delivered);
}
BENCHMARK(BM_DirectHotLoop)
    ->ArgNames({"load%", "shards", "jobs"})
    ->Args({50, 1, 1})
    ->Args({90, 1, 1})
    ->Args({90, 4, 4})
    ->Unit(benchmark::kMillisecond);

} // namespace
