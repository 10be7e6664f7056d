#include "clos/folded_clos.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace rfc {

FoldedClos::FoldedClos(std::vector<int> level_count, int radix,
                       int terminals_per_leaf, std::string name)
    : level_count_(std::move(level_count)), radix_(radix),
      terminals_per_leaf_(terminals_per_leaf), name_(std::move(name))
{
    if (level_count_.empty())
        throw std::invalid_argument("FoldedClos: need at least one level");
    level_offset_.resize(level_count_.size());
    std::int64_t off = 0;
    for (std::size_t i = 0; i < level_count_.size(); ++i) {
        if (level_count_[i] <= 0)
            throw std::invalid_argument("FoldedClos: empty level");
        level_offset_[i] = static_cast<int>(off);
        off += level_count_[i];
        // Switch ids are int: the levels must sum to at most INT_MAX.
        if (off > std::numeric_limits<int>::max())
            throw std::invalid_argument(
                "FoldedClos: level counts sum past " +
                std::to_string(std::numeric_limits<int>::max()) +
                " switches");
    }
    num_switches_ = static_cast<int>(off);

    // Size the CSR segments from radix regularity (Definition 3.1):
    // R/2 up below the top, R down at the top, R/2 down except at the
    // leaves (whose down ports host terminals, not switches).  Wirings
    // that exceed a segment - hand-built tests, expansion intermediates
    // - fall back to growSegment in addLink.
    const int half = std::max(0, radix_ / 2);
    const int top = static_cast<int>(level_count_.size());
    up_off_.resize(static_cast<std::size_t>(num_switches_) + 1);
    down_off_.resize(static_cast<std::size_t>(num_switches_) + 1);
    up_len_.assign(static_cast<std::size_t>(num_switches_), 0);
    down_len_.assign(static_cast<std::size_t>(num_switches_), 0);
    std::int64_t uo = 0, dn = 0;
    int s = 0;
    for (int lv = 1; lv <= top; ++lv) {
        const int up_cap = lv == top ? 0 : half;
        const int down_cap =
            lv == 1 ? 0 : (lv == top ? std::max(0, radix_) : half);
        for (int i = 0; i < level_count_[lv - 1]; ++i, ++s) {
            up_off_[s] = uo;
            down_off_[s] = dn;
            uo += up_cap;
            dn += down_cap;
        }
    }
    up_off_[num_switches_] = uo;
    down_off_[num_switches_] = dn;
    up_tgt_.resize(static_cast<std::size_t>(uo));
    down_tgt_.resize(static_cast<std::size_t>(dn));
}

int
FoldedClos::levelOf(int s) const
{
    // Levels are few; linear scan is fine and branch-predictable.
    for (int lv = levels(); lv >= 1; --lv)
        if (s >= level_offset_[lv - 1])
            return lv;
    throw std::out_of_range("FoldedClos::levelOf");
}

void
FoldedClos::growSegment(std::vector<std::int64_t> &off,
                        std::vector<std::int32_t> &tgt, int s)
{
    // Doubling keeps repeated growth of one segment amortized; the +4
    // floor covers zero-capacity segments (leaf down, top up).
    const std::int64_t cap = off[s + 1] - off[s];
    const std::int64_t extra = std::max<std::int64_t>(4, cap);
    std::vector<std::int32_t> grown(tgt.size() +
                                    static_cast<std::size_t>(extra));
    std::copy(tgt.begin(), tgt.begin() + off[s + 1], grown.begin());
    std::copy(tgt.begin() + off[s + 1], tgt.end(),
              grown.begin() + off[s + 1] + extra);
    for (std::size_t i = static_cast<std::size_t>(s) + 1; i < off.size();
         ++i)
        off[i] += extra;
    tgt = std::move(grown);
}

void
FoldedClos::addLink(int lower, int upper)
{
    if (up_len_[lower] == up_off_[lower + 1] - up_off_[lower])
        growSegment(up_off_, up_tgt_, lower);
    up_tgt_[up_off_[lower] + up_len_[lower]++] = upper;
    if (down_len_[upper] == down_off_[upper + 1] - down_off_[upper])
        growSegment(down_off_, down_tgt_, upper);
    down_tgt_[down_off_[upper] + down_len_[upper]++] = lower;
}

bool
FoldedClos::removeLink(int lower, int upper)
{
    // Swap-remove the first occurrence on both sides, mirroring the
    // historical vector semantics the fault models depend on.
    std::int32_t *u = up_tgt_.data() + up_off_[lower];
    const std::int32_t ulen = up_len_[lower];
    auto it = std::find(u, u + ulen, upper);
    if (it == u + ulen)
        return false;
    *it = u[ulen - 1];
    --up_len_[lower];

    std::int32_t *d = down_tgt_.data() + down_off_[upper];
    const std::int32_t dlen = down_len_[upper];
    auto jt = std::find(d, d + dlen, lower);
    *jt = d[dlen - 1];
    --down_len_[upper];
    return true;
}

int
FoldedClos::countLink(int lower, int upper) const
{
    const auto u = up(lower);
    return static_cast<int>(std::count(u.begin(), u.end(), upper));
}

std::vector<ClosLink>
FoldedClos::links() const
{
    std::vector<ClosLink> out;
    out.reserve(static_cast<std::size_t>(numWires()));
    for (int s = 0; s < num_switches_; ++s)
        for (int p : up(s))
            out.push_back({s, p});
    return out;
}

long long
FoldedClos::numWires() const
{
    long long w = 0;
    for (std::int32_t len : up_len_)
        w += len;
    return w;
}

bool
FoldedClos::isRadixRegular() const
{
    const int half = radix_ / 2;
    for (int s = 0; s < num_switches_; ++s) {
        int lv = levelOf(s);
        if (lv == levels()) {
            if (static_cast<int>(down(s).size()) != radix_)
                return false;
            if (!up(s).empty())
                return false;
        } else {
            if (static_cast<int>(up(s).size()) != half)
                return false;
            int down_links = lv == 1 ? terminals_per_leaf_
                                     : static_cast<int>(down(s).size());
            if (down_links != half)
                return false;
        }
    }
    return true;
}

bool
FoldedClos::validate() const
{
    for (int s = 0; s < num_switches_; ++s) {
        int lv = levelOf(s);
        for (int p : up(s)) {
            if (p < 0 || p >= num_switches_ || levelOf(p) != lv + 1)
                return false;
            const auto dp = down(p);
            const auto us = up(s);
            if (std::count(dp.begin(), dp.end(), s) !=
                std::count(us.begin(), us.end(), p))
                return false;
        }
        for (int c : down(s)) {
            if (c < 0 || c >= num_switches_ || levelOf(c) != lv - 1)
                return false;
        }
    }
    return true;
}

Graph
FoldedClos::toGraph() const
{
    Graph g(num_switches_);
    for (int s = 0; s < num_switches_; ++s)
        for (int p : up(s))
            g.addEdge(s, p);
    return g;
}

std::int64_t
FoldedClos::memoryBytes() const
{
    auto bytes = [](const auto &v) {
        return static_cast<std::int64_t>(v.size() * sizeof(v[0]));
    };
    return bytes(up_off_) + bytes(down_off_) + bytes(up_len_) +
           bytes(down_len_) + bytes(up_tgt_) + bytes(down_tgt_) +
           bytes(level_count_) + bytes(level_offset_);
}

} // namespace rfc
