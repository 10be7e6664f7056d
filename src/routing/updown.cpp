#include "routing/updown.hpp"

#include <stdexcept>

namespace rfc {

void
UpDownOracle::recomputeBelow(const FoldedClos &fc, int s,
                             DynBitset &out) const
{
    out.clear();
    if (s < num_leaves_) {
        out.set(static_cast<std::size_t>(s));
        return;
    }
    const auto &down = fc.down(s);
    for (std::size_t i = 0; i < down.size(); ++i)
        if (downAlive(s, i))
            out |= reach_[0][down[i]];
}

void
UpDownOracle::build(const FoldedClos &fc, const LinkFaultState *faults)
{
    levels_ = fc.levels();
    num_leaves_ = fc.numLeaves();
    faults_ = faults;
    const int s_count = fc.numSwitches();

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

    scratch_ = DynBitset(static_cast<std::size_t>(num_leaves_));
    mark_.assign(static_cast<std::size_t>(s_count), 0);
    mark_epoch_ = 0;
}

void
UpDownOracle::applyLinkEvent(const FoldedClos &fc, int lower, int upper)
{
    if (reach_.empty())
        throw std::logic_error("UpDownOracle: applyLinkEvent before build");

    auto push_unique = [&](std::vector<int> &list, int s) {
        if (mark_[static_cast<std::size_t>(s)] != mark_epoch_) {
            mark_[static_cast<std::size_t>(s)] = mark_epoch_;
            list.push_back(s);
        }
    };

    // ---- ascent budget 0: the ancestor cone of `upper` --------------
    // below[upper] may have gained or lost leaves; the change ripples
    // to exactly those ancestors whose recomputed union differs.
    changed_.clear();
    dirty_a_.clear();
    ++mark_epoch_;
    push_unique(dirty_a_, upper);
    while (!dirty_a_.empty()) {
        dirty_b_.clear();
        ++mark_epoch_;
        for (int s : dirty_a_) {
            recomputeBelow(fc, s, scratch_);
            if (!(scratch_ == reach_[0][s])) {
                reach_[0][s] = scratch_;
                changed_.push_back(s);
                for (int p : fc.up(s))
                    push_unique(dirty_b_, p);
            }
        }
        dirty_a_.swap(dirty_b_);
    }

    // ---- ascent budgets 1 .. l-1 ------------------------------------
    // reach_j[s] reads reach_{j-1} of s and of its alive parents, so a
    // budget-j entry can only change when (a) its switch's budget-(j-1)
    // entry changed, (b) a parent's budget-(j-1) entry changed (i.e. s
    // is a down-neighbor of a changed switch), or (c) the switch's own
    // up-edge set changed - which is `lower`, at every budget.
    // changed_ currently holds the budget-0 changed set.
    for (int j = 1; j < levels_; ++j) {
        dirty_a_.clear();
        ++mark_epoch_;
        push_unique(dirty_a_, lower);
        for (int x : changed_) {
            push_unique(dirty_a_, x);
            for (int c : fc.down(x))
                push_unique(dirty_a_, c);
        }
        changed_.clear();
        for (int s : dirty_a_) {
            scratch_ = reach_[j - 1][s];
            const auto &up = fc.up(s);
            for (std::size_t i = 0; i < up.size(); ++i)
                if (upAlive(s, i))
                    scratch_ |= reach_[j - 1][up[i]];
            if (!(scratch_ == reach_[j][s])) {
                reach_[j][s] = scratch_;
                changed_.push_back(s);
            }
        }
        // Once a budget level absorbs the event without any entry
        // changing, every higher budget reads unchanged inputs: the
        // only budget-(j+1) candidate left would be `lower`, whose
        // inputs (its own and its parents' budget-j entries) are all
        // unchanged too.
        if (changed_.empty())
            break;
    }
}

void
UpDownOracle::applyTopologyEvent(const FoldedClos &fc,
                                 const TopologyEvent &ev)
{
    switch (ev.op) {
    case TopoOp::kFail:
    case TopoOp::kRepair:
    case TopoOp::kDetach:
    case TopoOp::kAttach:
        applyLinkEvent(fc, ev.lower, ev.upper);
        break;
    case TopoOp::kAddSwitch:
    case TopoOp::kActivateTerminals:
        break;
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
