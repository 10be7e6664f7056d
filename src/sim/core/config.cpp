#include "sim/core/config.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace rfc {

void
SimConfig::validate() const
{
    if (vcs < 1)
        throw std::invalid_argument("SimConfig: vcs must be >= 1");
    if (buf_packets < 1)
        throw std::invalid_argument("SimConfig: buf_packets must be >= 1");
    if (pkt_phits < 1)
        throw std::invalid_argument("SimConfig: pkt_phits must be >= 1");
    if (link_latency < 1)
        throw std::invalid_argument(
            "SimConfig: link_latency must be >= 1 (cross-shard arrivals "
            "are exchanged at cycle barriers)");
    if (warmup < 0)
        throw std::invalid_argument("SimConfig: warmup must be >= 0");
    if (measure < 1)
        throw std::invalid_argument(
            "SimConfig: measurement window is empty (measure must be "
            ">= 1; check that warmup < total cycles)");
    // Exactly 0 is rejected too: the Bernoulli generation-gap sampler
    // divides by log(1 - load/pkt_phits) and a zero-load run measures
    // quantiles of an empty latency histogram.
    if (!(load > 0.0 && load <= 1.0))
        throw std::invalid_argument(
            "SimConfig: load must be within (0, 1], got " +
            std::to_string(load));
    if (source_queue < 1)
        throw std::invalid_argument("SimConfig: source_queue must be >= 1");
    if (shards < 1)
        throw std::invalid_argument(
            "SimConfig: shards must be >= 1 (the sequential shards = 0 "
            "mode was removed; shards = 1 is the single-stream engine)");
    if (shards > 256)
        throw std::invalid_argument("SimConfig: shards must be <= 256");
    if (route_ttl < 0)
        throw std::invalid_argument("SimConfig: route_ttl must be >= 0");
    if (telemetry_bin < 0)
        throw std::invalid_argument(
            "SimConfig: telemetry_bin must be >= 0");
    // NaN fails the >= comparison too, but test both sides explicitly:
    // a NaN threshold would otherwise silently disable the adaptive
    // decision instead of being rejected.
    if (std::isnan(ugal_threshold) || !(ugal_threshold >= 0.0) ||
        std::isinf(ugal_threshold))
        throw std::invalid_argument(
            "SimConfig: ugal_threshold must be finite and >= 0");
    if (flowlet_gap < 0)
        throw std::invalid_argument(
            "SimConfig: flowlet_gap must be >= 0");
    if (active_terminals < -1)
        throw std::invalid_argument(
            "SimConfig: active_terminals must be -1 (all) or >= 1");
    if (active_terminals == 0)
        throw std::invalid_argument(
            "SimConfig: active_terminals == 0 would leave no sender "
            "(use -1 to activate every terminal)");
    if (route_mode == RouteMode::kValiant && vcs < 2)
        throw std::invalid_argument("Valiant routing needs vcs >= 2 "
                                    "(phase-partitioned channels)");
    if (route_mode == RouteMode::kUgal && vcs < 2)
        throw std::invalid_argument("UGAL routing needs vcs >= 2 "
                                    "(phase-partitioned channels)");
    // Limits of the engine's narrow hot-state types, which would
    // otherwise wrap silently mid-run.
    if (vcs > 127)
        throw std::invalid_argument(
            "SimConfig: vcs must be <= 127 (VC indices are stored in 8 "
            "bits), got " + std::to_string(vcs));
    if (buf_packets > 127)
        throw std::invalid_argument(
            "SimConfig: buf_packets must be <= 127 (injection credits "
            "are 8-bit), got " + std::to_string(buf_packets));
    if (source_queue > 32767)
        throw std::invalid_argument(
            "SimConfig: source_queue must be <= 32767 (source-queue "
            "indices are 16-bit), got " + std::to_string(source_queue));
    if (pkt_phits >= kGenWheelSlots)
        throw std::invalid_argument(
            "SimConfig: pkt_phits must be < " +
            std::to_string(kGenWheelSlots) +
            " (the injection wheel has that many slots; an injection "
            "rescheduled pkt_phits ahead would land in the slot being "
            "drained), got " + std::to_string(pkt_phits));
}

void
PerfCounters::merge(const PerfCounters &o)
{
    cycles = o.cycles > cycles ? o.cycles : cycles;
    switch_scans += o.switch_scans;
    arb_conflicts += o.arb_conflicts;
    credit_stalls += o.credit_stalls;
    forwards += o.forwards;
    if (occupancy.size() < o.occupancy.size())
        occupancy.resize(o.occupancy.size(), 0);
    for (std::size_t i = 0; i < o.occupancy.size(); ++i)
        occupancy[i] += o.occupancy[i];
}

} // namespace rfc
