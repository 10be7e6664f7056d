#include "sim/core/config.hpp"

#include <cstdint>
#include <limits>
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
            "SimConfig: link_latency must be >= 1 (an arrival wakes its "
            "input VC at the next cycle at the earliest)");
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
    if (route_ttl < 0)
        throw std::invalid_argument("SimConfig: route_ttl must be >= 0");
    if (telemetry_bin < 0)
        throw std::invalid_argument(
            "SimConfig: telemetry_bin must be >= 0");
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
    if (pkt_phits >= kGenWheelSlots)
        throw std::invalid_argument(
            "SimConfig: pkt_phits must be < " +
            std::to_string(kGenWheelSlots) +
            " (the injection wheel has that many slots; an injection "
            "rescheduled pkt_phits ahead would land in the slot being "
            "drained), got " + std::to_string(pkt_phits));
    // The last stamp a run writes is an arrival's ready cycle, at most
    // warmup + measure + link_latency + pkt_phits.  Each term is already
    // known to be >= 0, so subtracting them one by one cannot overflow.
    constexpr long long kMaxStamp = std::numeric_limits<std::int32_t>::max();
    long long room = kMaxStamp;
    for (long long term : {static_cast<long long>(pkt_phits),
                           static_cast<long long>(link_latency), warmup,
                           measure}) {
        if (term > room)
            throw std::invalid_argument(
                "SimConfig: warmup + measure + link_latency + pkt_phits "
                "must be <= " + std::to_string(kMaxStamp) +
                " (cycle stamps are 32-bit), got warmup " +
                std::to_string(warmup) + ", measure " +
                std::to_string(measure) + ", link_latency " +
                std::to_string(link_latency) + ", pkt_phits " +
                std::to_string(pkt_phits));
        room -= term;
    }
}

} // namespace rfc
