/**
 * @file
 * Golden-baseline reproduction tests for both VCT simulators.
 *
 * The files under tests/golden/ hold SimResult fields of the default
 * engine (SimConfig::shards = 1) at fixed seeds, doubles in hexfloat,
 * so the comparison is bit-exact, not approximate.  Any change to the
 * flow-control core that alters a single RNG draw, a float summation
 * order, or an arbitration decision shows up here as a failed field.
 *
 * The files were re-recorded once when the sequential shards = 0 mode
 * (the draw-for-draw replica of the original simulators) was retired.
 * That changed the random stream, not the physics:
 * SeedMeansWithinBandsOfRetiredEngine pins each configuration's
 * 40-seed means to the retired engine's, kept below as reference data.
 *
 * Re-recording (only legitimate when a behavior change is intended
 * and documented):  RFC_GOLDEN_RECORD=1 ./test_sim_golden
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "clos/fat_tree.hpp"
#include "clos/rfc.hpp"
#include "graph/random_regular.hpp"
#include "routing/ksp_tables.hpp"
#include "routing/updown.hpp"
#include "sim/direct.hpp"
#include "sim/simulator.hpp"

#ifndef RFC_GOLDEN_DIR
#define RFC_GOLDEN_DIR "tests/golden"
#endif

namespace rfc {
namespace {

bool
recordMode()
{
    const char *env = std::getenv("RFC_GOLDEN_RECORD");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string
goldenPath(const std::string &name)
{
    return std::string(RFC_GOLDEN_DIR) + "/" + name + ".txt";
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** Serialize every deterministic SimResult field (telemetry excluded). */
std::map<std::string, std::string>
fields(const SimResult &r)
{
    return {
        {"offered", fmtDouble(r.offered)},
        {"accepted", fmtDouble(r.accepted)},
        {"avg_latency", fmtDouble(r.avg_latency)},
        {"p50_latency", fmtDouble(r.p50_latency)},
        {"p99_latency", fmtDouble(r.p99_latency)},
        {"avg_hops", fmtDouble(r.avg_hops)},
        {"delivered_packets", std::to_string(r.delivered_packets)},
        {"generated_packets", std::to_string(r.generated_packets)},
        {"suppressed_packets", std::to_string(r.suppressed_packets)},
        {"unroutable_packets", std::to_string(r.unroutable_packets)},
    };
}

void
checkOrRecord(const std::string &name, const SimResult &r)
{
    auto got = fields(r);
    if (recordMode()) {
        std::ofstream out(goldenPath(name));
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath(name);
        for (const auto &kv : got)
            out << kv.first << " " << kv.second << "\n";
        GTEST_LOG_(INFO) << "recorded golden " << name;
        return;
    }
    std::ifstream in(goldenPath(name));
    ASSERT_TRUE(in.good())
        << "missing golden file " << goldenPath(name)
        << " (record with RFC_GOLDEN_RECORD=1)";
    std::map<std::string, std::string> want;
    std::string key, value;
    while (in >> key >> value)
        want[key] = value;
    EXPECT_EQ(want.size(), got.size()) << "field set changed for " << name;
    for (const auto &kv : want) {
        auto it = got.find(kv.first);
        ASSERT_NE(it, got.end()) << name << ": missing field " << kv.first;
        EXPECT_EQ(kv.second, it->second)
            << name << ": field " << kv.first << " diverged from the "
            << "recorded baseline";
    }
}

SimConfig
goldenConfig(double load, std::uint64_t seed)
{
    SimConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 800;
    cfg.load = load;
    cfg.seed = seed;
    return cfg;
}

SimResult
cftUniformMinimal(std::uint64_t seed)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    return Simulator(fc, oracle, traffic, goldenConfig(0.5, seed)).run();
}

SimResult
cftUniformSaturated(std::uint64_t seed)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    return Simulator(fc, oracle, traffic, goldenConfig(0.95, seed)).run();
}

SimResult
cftPairingUpDownRandom(std::uint64_t seed)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    RandomPairingTraffic traffic;
    SimConfig cfg = goldenConfig(0.7, seed);
    cfg.route_mode = RouteMode::kUpDownRandom;
    return Simulator(fc, oracle, traffic, cfg).run();
}

SimResult
cftUniformValiant(std::uint64_t seed)
{
    auto fc = buildCft(8, 3);
    UpDownOracle oracle(fc);
    UniformTraffic traffic;
    SimConfig cfg = goldenConfig(0.4, seed);
    cfg.route_mode = RouteMode::kValiant;
    return Simulator(fc, oracle, traffic, cfg).run();
}

SimResult
rfcUniformMinimal(std::uint64_t seed)
{
    Rng rng(5);
    auto built = buildRfc(8, 3, 12, rng);
    EXPECT_TRUE(built.routable);
    UpDownOracle oracle(built.topology);
    UniformTraffic traffic;
    return Simulator(built.topology, oracle, traffic,
                     goldenConfig(0.6, seed))
        .run();
}

SimResult
directUniform(std::uint64_t seed)
{
    Rng grng(6);
    Graph g = randomRegularGraph(16, 4, grng);
    KspRoutes routes(g, 4);
    UniformTraffic traffic;
    SimConfig cfg = goldenConfig(0.4, seed);
    cfg.vcs = 6;
    return DirectSimulator(g, routes, 2, traffic, cfg).run();
}

SimResult
directPairingAllKsp(std::uint64_t seed)
{
    Rng grng(7);
    Graph g = randomRegularGraph(16, 4, grng);
    KspRoutes routes(g, 4);
    RandomPairingTraffic traffic;
    SimConfig cfg = goldenConfig(0.8, seed);
    cfg.vcs = 6;
    return DirectSimulator(g, routes, 2, traffic, cfg, PathPolicy::kAllKsp)
        .run();
}

TEST(SimGolden, CftUniformMinimal)
{
    checkOrRecord("cft8_uniform_minimal", cftUniformMinimal(11));
}

TEST(SimGolden, CftUniformSaturated)
{
    checkOrRecord("cft8_uniform_saturated", cftUniformSaturated(12));
}

TEST(SimGolden, CftPairingUpDownRandom)
{
    checkOrRecord("cft8_pairing_updownrandom", cftPairingUpDownRandom(13));
}

TEST(SimGolden, CftUniformValiant)
{
    checkOrRecord("cft8_uniform_valiant", cftUniformValiant(14));
}

TEST(SimGolden, RfcUniformMinimal)
{
    checkOrRecord("rfc8_uniform_minimal", rfcUniformMinimal(15));
}

TEST(SimGolden, DirectUniform)
{
    checkOrRecord("rrn16_uniform", directUniform(16));
}

TEST(SimGolden, DirectPairingAllKsp)
{
    checkOrRecord("rrn16_pairing_allksp", directPairingAllKsp(17));
}

/** Means of one golden configuration over seeds 1000..1039. */
struct SeedMeans
{
    const char *name;
    SimResult (*run)(std::uint64_t seed);
    double accepted, avg_latency, avg_hops;
};

/**
 * The retired shards = 0 engine's 40-seed means.  A single seed is too
 * noisy to compare streams on the 16-switch direct networks: their
 * per-seed spread (sd 9% of accepted load on rrn16_pairing_allksp, 8%
 * of latency on rrn16_uniform) exceeds the bands below.
 */
constexpr SeedMeans kRetiredEngine[] = {
    {"cft8_uniform_minimal", cftUniformMinimal, 0.496727, 60.8947, 3.71605},
    {"cft8_uniform_saturated", cftUniformSaturated, 0.717605, 208.029,
     3.68405},
    {"cft8_pairing_updownrandom", cftPairingUpDownRandom, 0.641074, 122.2,
     3.71147},
    {"cft8_uniform_valiant", cftUniformValiant, 0.343945, 180.643, 7.38417},
    {"rfc8_uniform_minimal", rfcUniformMinimal, 0.589, 74.817, 2.43102},
    {"rrn16_uniform", directUniform, 0.400516, 48.3085, 1.88402},
    {"rrn16_pairing_allksp", directPairingAllKsp, 0.417531, 287.25,
     2.67405},
};

TEST(SimGolden, SeedMeansWithinBandsOfRetiredEngine)
{
    // Accepted load within 5 %, latency within 10 %, hops within 5 %
    // of the retired engine: the one-shard wake-wheel stream changes
    // draws, not flow control.
    constexpr int kSeeds = 40;
    for (const SeedMeans &ref : kRetiredEngine) {
        double acc = 0.0, lat = 0.0, hops = 0.0;
        for (int i = 0; i < kSeeds; ++i) {
            SimResult r = ref.run(1000 + i);
            acc += r.accepted / kSeeds;
            lat += r.avg_latency / kSeeds;
            hops += r.avg_hops / kSeeds;
        }
        SCOPED_TRACE(ref.name);
        EXPECT_NEAR(acc, ref.accepted, 0.05 * ref.accepted);
        EXPECT_NEAR(lat, ref.avg_latency, 0.10 * ref.avg_latency);
        EXPECT_NEAR(hops, ref.avg_hops, 0.05 * ref.avg_hops);
    }
}

} // namespace
} // namespace rfc
