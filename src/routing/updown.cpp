#include "routing/updown.hpp"

namespace rfc {

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

    reach_.assign(levels_,
                  std::vector<DynBitset>(
                      s_count, DynBitset(static_cast<std::size_t>(
                                   num_leaves_))));

    // reach_0 = below: bottom-up accumulation over alive down links.
    for (int leaf = 0; leaf < num_leaves_; ++leaf)
        reach_[0][leaf].set(static_cast<std::size_t>(leaf));
    for (int lv = 2; lv <= levels_; ++lv) {
        int lo = fc.levelOffset(lv);
        int hi = lo + fc.switchesAtLevel(lv);
        for (int s = lo; s < hi; ++s) {
            const auto &down = fc.down(s);
            for (std::size_t i = 0; i < down.size(); ++i)
                if (downAlive(s, i))
                    reach_[0][s] |= reach_[0][down[i]];
        }
    }

    // reach_j from reach_{j-1}, walking alive parents.
    for (int j = 1; j < levels_; ++j) {
        for (int s = 0; s < s_count; ++s) {
            reach_[j][s] = reach_[j - 1][s];
            const auto &up = fc.up(s);
            for (std::size_t i = 0; i < up.size(); ++i)
                if (upAlive(s, i))
                    reach_[j][s] |= reach_[j - 1][up[i]];
        }
    }
}

bool
UpDownOracle::sameTables(const UpDownOracle &o) const
{
    return levels_ == o.levels_ && num_leaves_ == o.num_leaves_ &&
           reach_ == o.reach_;
}

int
UpDownOracle::minUps(int s, int dest_leaf) const
{
    auto d = static_cast<std::size_t>(dest_leaf);
    for (int j = 0; j < levels_; ++j)
        if (reach_[j][s].test(d))
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
            std::size_t cur = reach_[j][leaf].count();
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
    const auto &top = reach_[levels_ - 1];
    for (int leaf = 0; leaf < num_leaves_; ++leaf)
        if (!top[leaf].all())
            return false;
    return true;
}

double
UpDownOracle::routablePairFraction() const
{
    if (num_leaves_ < 2)
        return 1.0;
    const auto &top = reach_[levels_ - 1];
    long long good = 0;
    for (int leaf = 0; leaf < num_leaves_; ++leaf)
        good += static_cast<long long>(top[leaf].count());
    // Each bitset counts the leaf itself; remove the diagonal.
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
    auto d = static_cast<std::size_t>(dest_leaf);
    const auto &down = fc.down(s);
    for (std::size_t i = 0; i < down.size(); ++i)
        if (downAlive(s, i) && reach_[0][down[i]].test(d))
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
    auto d = static_cast<std::size_t>(dest_leaf);
    const auto &up = fc.up(s);
    for (std::size_t i = 0; i < up.size(); ++i)
        if (upAlive(s, i) && reach_[need - 1][up[i]].test(d))
            out.push_back(static_cast<int>(i));
}

void
UpDownOracle::feasibleUpChoices(const FoldedClos &fc, int s,
                                int dest_leaf,
                                std::vector<int> &out) const
{
    out.clear();
    auto d = static_cast<std::size_t>(dest_leaf);
    const auto &up = fc.up(s);
    if (up.empty())
        return;
    // All parents sit one level above s; from there levels_ - lv more
    // up hops remain possible.
    int lv_parent = fc.levelOf(s) + 1;
    int budget = levels_ - lv_parent;
    for (std::size_t i = 0; i < up.size(); ++i)
        if (upAlive(s, i) && reach_[budget][up[i]].test(d))
            out.push_back(static_cast<int>(i));
}

} // namespace rfc
