#include "flow/paths.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rfc {

namespace {

/** Home slot of switch @p s in a memo of @p mask + 1 slots. */
std::size_t
memoSlot(int s, std::size_t mask)
{
    return static_cast<std::size_t>(
               (static_cast<std::uint64_t>(s) * 0x9e3779b97f4a7c15ULL) >>
               40) &
           mask;
}

} // namespace

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

std::size_t
UpDownEcmpPaths::choicesAt(int s, int dst, bool up, LeafPairPaths &out) const
{
    using Hop = LeafPairPaths::Hop;
    auto probe = [&](int sw) {
        const std::size_t mask = out.memo_.size() - 1;
        std::size_t i = memoSlot(sw, mask);
        while (out.memo_[i].gen == out.gen_ && out.memo_[i].sw != sw)
            i = (i + 1) & mask;
        return i;
    };
    std::size_t i = probe(s);
    if (out.memo_[i].gen == out.gen_)
        return i;

    // Keep the load factor at most 1/2.
    if (2 * (out.memo_used_ + 1) > out.memo_.size()) {
        std::vector<Hop> old(out.memo_.size() * 2);
        old.swap(out.memo_);
        for (const Hop &h : old)
            if (h.gen == out.gen_)
                out.memo_[probe(h.sw)] = h;
        i = probe(s);
    }
    ++out.memo_used_;

    if (up)
        oracle_.upChoices(fc_, s, dst, out.list_);
    else
        oracle_.downChoices(fc_, s, dst, out.list_);
    Hop &h = out.memo_[i];
    h.sw = s;
    h.gen = out.gen_;
    h.first = static_cast<std::int32_t>(out.choice_.size());
    h.count = static_cast<std::int32_t>(out.list_.size());
    out.choice_.insert(out.choice_.end(), out.list_.begin(),
                       out.list_.end());
    return i;
}

bool
UpDownEcmpPaths::enumerate(std::size_t depth, int s, int ups, int dst,
                           LeafPairPaths &out) const
{
    out.at_[depth] = s;
    if (s == dst && ups == 0) {
        if (static_cast<int>(out.count_) >= max_paths_)
            return false;
        out.sw_.insert(out.sw_.end(), out.at_.begin(), out.at_.end());
        out.port_.insert(out.port_.end(), out.via_.begin(), out.via_.end());
        ++out.count_;
        return true;
    }
    const bool up = ups > 0;
    // A copy: deeper calls may grow the memo.
    const LeafPairPaths::Hop h = out.memo_[choicesAt(s, dst, up, out)];
    const auto next = up ? fc_.up(s) : fc_.down(s);
    const int base = up ? 0 : static_cast<int>(fc_.up(s).size());
    for (std::int32_t j = 0; j < h.count; ++j) {
        const int k = out.choice_[static_cast<std::size_t>(h.first + j)];
        out.via_[depth] = base + k;
        if (!enumerate(depth + 1, next[k], up ? ups - 1 : 0, dst, out))
            return false;
    }
    return true;
}

void
UpDownEcmpPaths::samplePath(int src, int ups, int dst, Rng &rng,
                            LeafPairPaths &out) const
{
    int s = src;
    std::size_t depth = 0;
    out.at_[0] = s;
    auto step = [&](bool up) {
        const LeafPairPaths::Hop &h = out.memo_[choicesAt(s, dst, up, out)];
        const int k = out.choice_[static_cast<std::size_t>(h.first) +
                                  rng.uniform(static_cast<std::uint64_t>(
                                      h.count))];
        out.via_[depth] = up ? k : static_cast<int>(fc_.up(s).size()) + k;
        s = up ? fc_.up(s)[k] : fc_.down(s)[k];
        out.at_[++depth] = s;
    };
    for (int u = ups; u > 0; --u)
        step(true);
    while (s != dst)
        step(false);
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
    out.at_.resize(static_cast<std::size_t>(out.hops_) + 1);
    out.via_.resize(static_cast<std::size_t>(out.hops_));
    // A new generation empties the memo without touching its slots.
    if (out.memo_.empty())
        out.memo_.resize(64);
    if (++out.gen_ == 0) {
        for (auto &h : out.memo_)
            h.gen = 0;
        out.gen_ = 1;
    }
    out.memo_used_ = 0;
    out.choice_.clear();

    // Every minimal up choice at src starts at least one minimal path,
    // so when they alone outnumber the cap enumeration can only
    // overflow: go straight to sampling.
    if (out.memo_[choicesAt(src, dst, true, out)].count <= max_paths_ &&
        enumerate(0, src, ups, dst, out))
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
        samplePath(src, ups, dst, rng, out);
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
