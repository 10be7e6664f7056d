#include "flow/paths.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rfc {

UpDownEcmpPaths::UpDownEcmpPaths(const FoldedClos &fc,
                                 const UpDownOracle &oracle, int max_paths,
                                 std::uint64_t seed)
    : fc_(fc), oracle_(oracle), max_paths_(max_paths), seed_(seed)
{
    if (max_paths < 1)
        throw std::invalid_argument(
            "UpDownEcmpPaths: max_paths must be >= 1, got " +
            std::to_string(max_paths));
}

bool
UpDownEcmpPaths::enumerate(std::size_t depth, int s, int dst,
                           LeafPairPaths &out) const
{
    out.at_[depth] = s;
    if (s == dst) {
        if (static_cast<int>(out.count_) >= max_paths_)
            return false;
        out.sw_.insert(out.sw_.end(), out.at_.begin(), out.at_.end());
        out.port_.insert(out.port_.end(), out.via_.begin(), out.via_.end());
        ++out.count_;
        return true;
    }
    const int words = oracle_.maskWords();
    std::uint64_t *row =
        out.mask_.data() + depth * static_cast<std::size_t>(words);
    const bool up = oracle_.nextHops(fc_, s, dst, false, row) > 0;
    const auto next = up ? fc_.up(s) : fc_.down(s);
    const int base = up ? 0 : static_cast<int>(fc_.up(s).size());
    for (int w = 0; w < words; ++w)
        for (std::uint64_t m = row[w]; m != 0; m &= m - 1) {
            const int k = 64 * w + __builtin_ctzll(m);
            out.via_[depth] = base + k;
            if (!enumerate(depth + 1, next[k], dst, out))
                return false;
        }
    return true;
}

void
UpDownEcmpPaths::samplePath(int src, int dst, Rng &rng,
                            LeafPairPaths &out) const
{
    const int words = oracle_.maskWords();
    std::uint64_t *row = out.mask_.data();
    int s = src;
    std::size_t depth = 0;
    out.at_[0] = s;
    while (s != dst) {
        const bool up = oracle_.nextHops(fc_, s, dst, false, row) > 0;
        const auto count = static_cast<std::uint64_t>(
            UpDownOracle::maskCount(row, words));
        const int k = UpDownOracle::maskSelect(row, rng.uniform(count));
        out.via_[depth] = up ? k : static_cast<int>(fc_.up(s).size()) + k;
        s = up ? fc_.up(s)[k] : fc_.down(s)[k];
        out.at_[++depth] = s;
    }
}

void
UpDownEcmpPaths::paths(int src, int dst, LeafPairPaths &out) const
{
    const int leaves = fc_.numLeaves();
    for (int leaf : {src, dst})
        if (leaf < 0 || leaf >= leaves)
            throw std::invalid_argument(
                "UpDownEcmpPaths::paths: leaf " + std::to_string(leaf) +
                " outside [0, " + std::to_string(leaves) + ")");
    out.count_ = 0;
    out.hops_ = 0;
    out.sw_.clear();
    out.port_.clear();
    if (src == dst) {
        out.sw_.push_back(src);
        out.count_ = 1;
        return;
    }
    const int ups = oracle_.minUps(src, dst);
    if (ups < 0)
        return;  // no up/down route (faulted network)

    // A minimal path is 2 * ups hops long (every hop changes level).
    out.hops_ = 2 * ups;
    const auto hops = static_cast<std::size_t>(out.hops_);
    const int words = oracle_.maskWords();
    out.at_.resize(hops + 1);
    out.via_.resize(hops);
    out.mask_.resize(hops * static_cast<std::size_t>(words));

    // Every minimal up choice at src starts at least one minimal path,
    // so when they alone outnumber the cap enumeration can only
    // overflow: go straight to sampling.
    oracle_.nextHops(fc_, src, dst, false, out.mask_.data());
    if (UpDownOracle::maskCount(out.mask_.data(), words) <= max_paths_ &&
        enumerate(0, src, dst, out))
        return;  // complete ECMP set fits the cap

    // Cap exceeded: deterministic seeded sample of distinct paths.
    out.count_ = 0;
    out.sw_.clear();
    out.port_.clear();
    Rng rng(deriveSeed(seed_, static_cast<std::uint64_t>(src),
                       static_cast<std::uint64_t>(dst)));
    // Accepted rows are kept sorted by switch sequence: a sample goes
    // in before the first row it is less than, and one equal to a row
    // already kept is a miss.
    const std::size_t row = out.at_.size();
    int misses = 0;
    while (static_cast<int>(out.count_) < max_paths_ &&
           misses < 4 * max_paths_) {
        samplePath(src, dst, rng, out);
        std::size_t i = 0;
        bool seen = false;
        for (; i < out.count_; ++i) {
            const auto diff = std::mismatch(
                out.at_.begin(), out.at_.end(),
                out.sw_.begin() + static_cast<std::ptrdiff_t>(i * row));
            seen = diff.first == out.at_.end();
            if (seen || *diff.first < *diff.second)
                break;
        }
        if (seen) {
            ++misses;
            continue;
        }
        out.sw_.insert(out.sw_.begin() + static_cast<std::ptrdiff_t>(i * row),
                       out.at_.begin(), out.at_.end());
        out.port_.insert(
            out.port_.begin() + static_cast<std::ptrdiff_t>(i * (row - 1)),
            out.via_.begin(), out.via_.end());
        ++out.count_;
    }
}

} // namespace rfc
