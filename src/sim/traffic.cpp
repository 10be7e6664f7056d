#include "sim/traffic.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

namespace rfc {

void
UniformTraffic::init(long long nodes, Rng &)
{
    nodes_ = nodes;
    active_ = nodes;
}

long long
UniformTraffic::dest(long long src, Rng &rng)
{
    // Ungated runs have active_ == nodes_, so the draw below is the
    // historical uniform(nodes_ - 1): golden baselines are preserved
    // bit for bit.  Gated runs draw from the active prefix only
    // (sources are always active, so src < active_ here).
    auto d = static_cast<long long>(
        rng.uniform(static_cast<std::uint64_t>(active_ - 1)));
    return d >= src ? d + 1 : d;
}

void
UniformTraffic::setActiveTerminals(long long n)
{
    if (n < 1 || (nodes_ > 0 && n > nodes_))
        throw std::invalid_argument(
            "UniformTraffic: active prefix out of range");
    active_ = n;
}

void
RandomPairingTraffic::init(long long nodes, Rng &rng)
{
    if (nodes % 2)
        throw std::invalid_argument("random-pairing needs an even node "
                                    "count");
    std::vector<long long> order(nodes);
    std::iota(order.begin(), order.end(), 0LL);
    rng.shuffle(order);
    partner_.assign(nodes, 0);
    for (long long i = 0; i < nodes; i += 2) {
        partner_[order[i]] = order[i + 1];
        partner_[order[i + 1]] = order[i];
    }
}

long long
RandomPairingTraffic::dest(long long src, Rng &)
{
    return partner_[src];
}

void
FixedRandomTraffic::init(long long nodes, Rng &rng)
{
    dest_.resize(nodes);
    for (long long i = 0; i < nodes; ++i) {
        auto d = static_cast<long long>(
            rng.uniform(static_cast<std::uint64_t>(nodes - 1)));
        dest_[i] = d >= i ? d + 1 : d;
    }
}

long long
FixedRandomTraffic::dest(long long src, Rng &)
{
    return dest_[src];
}

void
PermutationTraffic::init(long long nodes, Rng &rng)
{
    perm_.resize(nodes);
    std::iota(perm_.begin(), perm_.end(), 0LL);
    rng.shuffle(perm_);
    // Avoid fixed points by swapping any self-mapping with its neighbor.
    for (long long i = 0; i < nodes; ++i) {
        if (perm_[i] == i) {
            long long j = (i + 1) % nodes;
            std::swap(perm_[i], perm_[j]);
        }
    }
}

long long
PermutationTraffic::dest(long long src, Rng &)
{
    return perm_[src];
}

HotspotTraffic::HotspotTraffic(double hot_fraction, int hotspots)
    : hot_fraction_(hot_fraction), num_hotspots_(hotspots)
{
    // Written so that NaN fails too.
    if (!(hot_fraction >= 0.0 && hot_fraction <= 1.0))
        throw std::invalid_argument("HotspotTraffic: hot fraction " +
                                    std::to_string(hot_fraction) +
                                    " is outside [0, 1]");
}

void
HotspotTraffic::init(long long nodes, Rng &rng)
{
    nodes_ = nodes;
    hot_.clear();
    for (int i = 0; i < num_hotspots_; ++i)
        hot_.push_back(static_cast<long long>(
            rng.uniform(static_cast<std::uint64_t>(nodes))));
}

long long
HotspotTraffic::dest(long long src, Rng &rng)
{
    if (!hot_.empty() && rng.bernoulli(hot_fraction_)) {
        long long d = hot_[rng.uniform(hot_.size())];
        if (d != src)
            return d;
    }
    auto d = static_cast<long long>(
        rng.uniform(static_cast<std::uint64_t>(nodes_ - 1)));
    return d >= src ? d + 1 : d;
}

void
ShiftTraffic::init(long long nodes, Rng &)
{
    if (nodes < 2)
        throw std::invalid_argument("shift needs >= 2 nodes");
    nodes_ = nodes;
    stride_ = ((stride_ % nodes) + nodes) % nodes;
    if (stride_ == 0)
        stride_ = 1;
}

long long
ShiftTraffic::dest(long long src, Rng &)
{
    return (src + stride_) % nodes_;
}

std::unique_ptr<Traffic>
makeTraffic(const std::string &name)
{
    if (name == "uniform")
        return std::make_unique<UniformTraffic>();
    if (name == "random-pairing")
        return std::make_unique<RandomPairingTraffic>();
    if (name == "fixed-random")
        return std::make_unique<FixedRandomTraffic>();
    if (name == "permutation")
        return std::make_unique<PermutationTraffic>();
    throw std::invalid_argument("unknown traffic pattern: " + name);
}

} // namespace rfc
