#include "routing/updown.hpp"

namespace rfc {

namespace {

std::size_t
countRow(const std::uint64_t *row, std::size_t words)
{
    std::size_t c = 0;
    for (std::size_t w = 0; w < words; ++w)
        c += static_cast<std::size_t>(__builtin_popcountll(row[w]));
    return c;
}

} // namespace

void
UpDownOracle::build(const FoldedClos &fc, const LinkFaultState *faults)
{
    levels_ = fc.levels();
    num_leaves_ = fc.numLeaves();
    faults_ = faults;
    const int s_count = fc.numSwitches();
    std::size_t widest = 1;
    for (int s = 0; s < s_count; ++s)
        widest = std::max({widest, fc.up(s).size(), fc.down(s).size()});
    mask_words_ = static_cast<int>((widest + 63) / 64);

    // Level lv (0-based) stores budgets 0..levels_ - 1 - lv, one block
    // of its switches' rows per budget.
    row_words_ = (static_cast<std::size_t>(num_leaves_) + 63) / 64;
    level_.assign(static_cast<std::size_t>(levels_), Level{});
    std::size_t total = 0;
    for (int lv = 0; lv < levels_; ++lv) {
        Level &l = level_[static_cast<std::size_t>(lv)];
        l.first = fc.levelOffset(lv + 1);
        l.base = total;
        l.stride = static_cast<std::size_t>(fc.switchesAtLevel(lv + 1)) *
                   row_words_;
        total += static_cast<std::size_t>(levels_ - lv) * l.stride;
    }
    words_.assign(total, 0);

    auto orRow = [](std::uint64_t *dst, const std::uint64_t *src,
                    std::size_t words) {
        for (std::size_t w = 0; w < words; ++w)
            dst[w] |= src[w];
    };

    // reach_0 = below: bottom-up accumulation over alive down links.
    for (int leaf = 0; leaf < num_leaves_; ++leaf)
        rows(leaf, 0)[static_cast<std::size_t>(leaf) >> 6] |=
            std::uint64_t{1} << (leaf & 63);
    for (int lv = 1; lv < levels_; ++lv) {
        const int lo = fc.levelOffset(lv + 1);
        const int hi = lo + fc.switchesAtLevel(lv + 1);
        for (int s = lo; s < hi; ++s) {
            std::uint64_t *below = rows(s, lv);
            const auto down = fc.down(s);
            for (std::size_t i = 0; i < down.size(); ++i)
                if (downAlive(s, i))
                    orRow(below, rows(down[i], lv - 1), row_words_);
        }
    }

    // reach_j[s] = reach_{j-1}[s] | reach_{j-1}[p] over alive parents p,
    // for j up to s's ceiling.  Top-down, so the parents' rows are done.
    for (int lv = levels_ - 2; lv >= 0; --lv) {
        const std::size_t stride = level_[static_cast<std::size_t>(lv)].stride;
        const std::size_t p_stride =
            level_[static_cast<std::size_t>(lv + 1)].stride;
        const int lo = fc.levelOffset(lv + 1);
        const int hi = lo + fc.switchesAtLevel(lv + 1);
        for (int j = 1; j <= levels_ - 1 - lv; ++j) {
            const auto prev = static_cast<std::size_t>(j - 1);
            for (int s = lo; s < hi; ++s) {
                std::uint64_t *row = rows(s, lv) + (prev + 1) * stride;
                orRow(row, rows(s, lv) + prev * stride, row_words_);
                const auto up = fc.up(s);
                for (std::size_t i = 0; i < up.size(); ++i)
                    if (upAlive(s, i))
                        orRow(row, rows(up[i], lv + 1) + prev * p_stride,
                              row_words_);
            }
        }
    }
}

bool
UpDownOracle::sameTables(const UpDownOracle &o) const
{
    return levels_ == o.levels_ && num_leaves_ == o.num_leaves_ &&
           level_ == o.level_ && words_ == o.words_;
}

int
UpDownOracle::minUps(int s, int dest_leaf) const
{
    const int lv = levelIndex(s);
    const std::size_t stride = level_[static_cast<std::size_t>(lv)].stride;
    const std::uint64_t *row = rows(s, lv);
    for (int j = 0; j < levels_ - lv; ++j, row += stride)
        if (hasLeaf(row, dest_leaf))
            return j;
    return -1;
}

int
UpDownOracle::leafDistance(int a, int b) const
{
    if (a == b)
        return 0;
    int j = minUps(a, b);
    return j < 0 ? -1 : 2 * j;
}

double
UpDownOracle::averageLeafDistance() const
{
    // Count, per ascent budget j, how many leaves are newly reachable:
    // each contributes distance 2j.
    double total = 0.0;
    long long pairs = 0;
    for (int leaf = 0; leaf < num_leaves_; ++leaf) {
        std::size_t prev = 1;  // the leaf itself at j = 0
        for (int j = 1; j < levels_; ++j) {
            std::size_t cur = countRow(reachWords(leaf, j), row_words_);
            total += 2.0 * j * static_cast<double>(cur - prev);
            pairs += static_cast<long long>(cur - prev);
            prev = cur;
        }
    }
    return pairs ? total / static_cast<double>(pairs) : 0.0;
}

bool
UpDownOracle::routable() const
{
    const auto n = static_cast<std::size_t>(num_leaves_);
    for (int leaf = 0; leaf < num_leaves_; ++leaf)
        if (countRow(reachWords(leaf, levels_ - 1), row_words_) != n)
            return false;
    return true;
}

double
UpDownOracle::routablePairFraction() const
{
    if (num_leaves_ < 2)
        return 1.0;
    long long good = 0;
    for (int leaf = 0; leaf < num_leaves_; ++leaf)
        good += static_cast<long long>(
            countRow(reachWords(leaf, levels_ - 1), row_words_));
    // Each row counts the leaf itself; remove the diagonal.
    good -= num_leaves_;
    long long total =
        static_cast<long long>(num_leaves_) * (num_leaves_ - 1);
    return static_cast<double>(good) / static_cast<double>(total);
}

void
UpDownOracle::downChoices(const FoldedClos &fc, int s, int dest_leaf,
                          std::vector<int> &out) const
{
    out.clear();
    const auto &down = fc.down(s);
    for (std::size_t i = 0; i < down.size(); ++i)
        if (downAlive(s, i) && hasLeaf(reachWords(down[i], 0), dest_leaf))
            out.push_back(static_cast<int>(i));
}

void
UpDownOracle::upChoices(const FoldedClos &fc, int s, int dest_leaf,
                        std::vector<int> &out) const
{
    out.clear();
    int need = minUps(s, dest_leaf);
    if (need < 1)
        return;
    const auto &up = fc.up(s);
    for (std::size_t i = 0; i < up.size(); ++i)
        if (upAlive(s, i) &&
            hasLeaf(reachWords(up[i], need - 1), dest_leaf))
            out.push_back(static_cast<int>(i));
}

void
UpDownOracle::feasibleUpChoices(const FoldedClos &fc, int s,
                                int dest_leaf,
                                std::vector<int> &out) const
{
    out.clear();
    const auto &up = fc.up(s);
    if (up.empty())
        return;
    // All parents sit one level above s; from there levels_ - lv more
    // up hops remain possible.
    int lv_parent = fc.levelOf(s) + 1;
    int budget = levels_ - lv_parent;
    for (std::size_t i = 0; i < up.size(); ++i)
        if (upAlive(s, i) && hasLeaf(reachWords(up[i], budget), dest_leaf))
            out.push_back(static_cast<int>(i));
}

} // namespace rfc
