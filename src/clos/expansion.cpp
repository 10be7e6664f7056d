#include "clos/expansion.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rfc {

namespace {

/**
 * A network of @p counts switches per level holding every link of
 * @p fc, each switch at the same position of its level, links added in
 * (switch, up-port) order - which fixes every down list's order.
 */
FoldedClos
relinked(const FoldedClos &fc, const std::vector<int> &counts)
{
    FoldedClos out(counts, fc.radix(), fc.terminalsPerLeaf(), fc.name());
    auto remap = [&](int s) {
        const int lv = fc.levelOf(s);
        return out.levelOffset(lv) + (s - fc.levelOffset(lv));
    };
    for (int s = 0; s < fc.numSwitches(); ++s)
        for (int p : fc.up(s))
            out.addLink(remap(s), remap(p));
    return out;
}

} // namespace

ExpansionPlan::ExpansionPlan(const FoldedClos &base, int steps, Rng &rng)
    : base_(base), steps_(steps)
{
    if (steps < 1)
        throw std::invalid_argument("ExpansionPlan: steps must be >= 1");
    if (base.levels() < 2)
        throw std::invalid_argument("ExpansionPlan: need >= 2 levels");

    // Every stage is drawn directly in the final numbering: a switch
    // keeps its position within its level, and each step's new switches
    // append at the level's end (the later steps' ones stay unwired).
    const int l = base.levels();
    std::vector<int> counts(static_cast<std::size_t>(l));
    for (int lv = 1; lv <= l; ++lv)
        counts[static_cast<std::size_t>(lv - 1)] =
            base.switchesAtLevel(lv) + steps * (lv == l ? 1 : 2);
    const int m = base.radix() / 2;

    for (int step = 0; step < steps; ++step) {
        // Relinking at each step start re-adds the links in (switch,
        // up-port) order, which resets every down list's port order:
        // the port numbering a simulation of the result reads.
        final_ = relinked(step == 0 ? base : final_, counts);
        std::vector<int> &fresh = new_switches_.emplace_back();
        for (int lv = 1; lv <= l; ++lv) {
            const int first = final_.levelOffset(lv) +
                              base.switchesAtLevel(lv) +
                              step * (lv == l ? 1 : 2);
            fresh.push_back(first);
            if (lv < l)
                fresh.push_back(first + 1);
        }

        for (int lv = 1; lv < l; ++lv) {
            // This step's first new switch at levels lv and lv + 1.
            const auto at = static_cast<std::size_t>(2 * lv - 2);
            const int new_lo_base = fresh[at];
            const int new_up_base = fresh[at + 2];
            const bool top_pair = (lv + 1 == l);

            // Free 2m endpoints on each side by removing 2m random
            // existing links between levels lv and lv+1, none of which
            // touches a new switch.
            std::vector<ClosLink> candidates;
            for (int s = final_.levelOffset(lv); s < new_lo_base; ++s)
                for (int p : final_.up(s))
                    if (p < new_up_base)
                        candidates.push_back({s, p});
            if (static_cast<int>(candidates.size()) < 2 * m)
                throw std::runtime_error("ExpansionPlan: network too "
                                         "small to rewire");
            rng.shuffle(candidates);

            // Port slots to fill: each removed link (a, b) donates its
            // lower endpoint a to a new upper switch and its upper
            // endpoint b to a new lower switch.  Per-slot rejection
            // sampling keeps the wiring simple (no duplicate links).
            std::vector<int> uppers, lowers;
            if (top_pair) {
                uppers.assign(2 * m, new_up_base);
            } else {
                for (int i = 0; i < 2 * m; ++i)
                    uppers.push_back(new_up_base + (i < m ? 0 : 1));
            }
            for (int i = 0; i < 2 * m; ++i)
                lowers.push_back(new_lo_base + (i < m ? 0 : 1));
            rng.shuffle(uppers);
            rng.shuffle(lowers);

            ExpansionStage st{step, lv, std::vector<RewireOp>(2 * m)};
            bool done = false;
            for (int attempt = 0; attempt < 64 && !done; ++attempt) {
                std::vector<std::pair<int, int>> new_up_links;
                std::vector<std::pair<int, int>> new_down_links;
                std::vector<char> used(candidates.size(), 0);
                bool ok = true;
                for (int i = 0; i < 2 * m && ok; ++i) {
                    bool placed = false;
                    for (int tries = 0; tries < 256; ++tries) {
                        auto e = rng.uniform(candidates.size());
                        if (used[e])
                            continue;
                        const ClosLink &c = candidates[e];
                        std::pair<int, int> au{c.lower, uppers[i]};
                        std::pair<int, int> bl{lowers[i], c.upper};
                        if (std::find(new_up_links.begin(),
                                      new_up_links.end(), au) !=
                            new_up_links.end())
                            continue;
                        if (std::find(new_down_links.begin(),
                                      new_down_links.end(), bl) !=
                            new_down_links.end())
                            continue;
                        used[e] = 1;
                        new_up_links.push_back(au);
                        new_down_links.push_back(bl);
                        st.ops[i] = {c, {c.lower, uppers[i]},
                                     {lowers[i], c.upper}};
                        placed = true;
                        break;
                    }
                    ok = placed;
                }
                done = ok;
            }
            if (!done)
                throw std::runtime_error("ExpansionPlan: rewire failed");

            applyStage(final_, st);
            rewired_ += 2 * m;
            stages_.push_back(std::move(st));
        }
        added_terminals_ += 2LL * base.terminalsPerLeaf();
    }
}

FoldedClos
ExpansionPlan::preStaged() const
{
    std::vector<int> counts(static_cast<std::size_t>(final_.levels()));
    for (int lv = 1; lv <= final_.levels(); ++lv)
        counts[static_cast<std::size_t>(lv - 1)] =
            final_.switchesAtLevel(lv);
    return relinked(base_, counts);
}

FoldedClos
ExpansionPlan::unionTopology() const
{
    FoldedClos out = preStaged();
    // Every staged link has a brand-new endpoint in its step, and each
    // (new switch, direction) adjacency set is filled by exactly one
    // stage, so no staged link duplicates a base link or another
    // stage's addition: the union is a simple wiring.
    for (const ExpansionStage &st : stages_) {
        for (const RewireOp &op : st.ops) {
            out.addLink(op.added_up.lower, op.added_up.upper);
            out.addLink(op.added_down.lower, op.added_down.upper);
        }
    }
    return out;
}

void
ExpansionPlan::applyStage(FoldedClos &fc, const ExpansionStage &st) const
{
    for (const RewireOp &op : st.ops) {
        if (!fc.removeLink(op.removed.lower, op.removed.upper))
            throw std::logic_error(
                "ExpansionPlan: removed link not present (stages must "
                "be applied in order, starting from preStaged())");
        fc.addLink(op.added_up.lower, op.added_up.upper);
        fc.addLink(op.added_down.lower, op.added_down.upper);
    }
}

TopologyTimeline
ExpansionPlan::liveTimeline(long long start, long long step_spacing,
                            long long activate_delay) const
{
    if (start < 0 || step_spacing < 0 || activate_delay < 0)
        throw std::invalid_argument(
            "ExpansionPlan::liveTimeline: cycles must be >= 0");
    TopologyTimeline tl;
    tl.setInitialActive(baseTerminals());
    std::size_t si = 0;
    for (int k = 0; k < steps_; ++k) {
        const long long cycle = start + step_spacing * k;
        for (int s : new_switches_[static_cast<std::size_t>(k)])
            tl.addSwitch(cycle, s);
        for (; si < stages_.size() && stages_[si].step == k; ++si) {
            for (const RewireOp &op : stages_[si].ops) {
                tl.detach(cycle, op.removed.lower, op.removed.upper);
                tl.attach(cycle, op.added_up.lower, op.added_up.upper);
                tl.attach(cycle, op.added_down.lower,
                          op.added_down.upper);
            }
        }
        tl.activateTerminals(cycle + activate_delay,
                             activeTerminalsAfter(k));
    }
    return tl;
}

// ======================================================================
// MorphPlan
// ======================================================================

MorphPlan
planMorph(const FoldedClos &from, const FoldedClos &to)
{
    if (from.levels() != to.levels())
        throw std::invalid_argument("planMorph: level counts differ");
    if (from.radix() != to.radix() ||
        from.terminalsPerLeaf() != to.terminalsPerLeaf())
        throw std::invalid_argument(
            "planMorph: radix / terminals-per-leaf differ");
    for (int lv = 1; lv <= from.levels(); ++lv)
        if (to.switchesAtLevel(lv) < from.switchesAtLevel(lv))
            throw std::invalid_argument(
                "planMorph: target level " + std::to_string(lv) +
                " is smaller than the source");

    auto remap = [&](int s) {
        int lv = from.levelOf(s);
        return to.levelOffset(lv) + (s - from.levelOffset(lv));
    };
    auto link_key = [](const ClosLink &l) {
        return std::pair<int, int>(l.lower, l.upper);
    };

    std::vector<ClosLink> from_links;
    for (int s = 0; s < from.numSwitches(); ++s)
        for (int p : from.up(s))
            from_links.push_back({remap(s), remap(p)});
    std::vector<ClosLink> to_links = to.links();

    auto by_key = [&](const ClosLink &a, const ClosLink &b) {
        return link_key(a) < link_key(b);
    };
    std::sort(from_links.begin(), from_links.end(), by_key);
    std::sort(to_links.begin(), to_links.end(), by_key);

    MorphPlan plan;
    std::set_difference(from_links.begin(), from_links.end(),
                        to_links.begin(), to_links.end(),
                        std::back_inserter(plan.detach), by_key);
    std::set_difference(to_links.begin(), to_links.end(),
                        from_links.begin(), from_links.end(),
                        std::back_inserter(plan.attach), by_key);
    plan.from_terminals = from.numTerminals();
    plan.to_terminals = to.numTerminals();

    std::vector<int> counts(static_cast<std::size_t>(to.levels()));
    for (int lv = 1; lv <= to.levels(); ++lv)
        counts[static_cast<std::size_t>(lv - 1)] =
            to.switchesAtLevel(lv);
    plan.union_topology = FoldedClos(counts, to.radix(),
                                     to.terminalsPerLeaf(), to.name());
    for (const ClosLink &l : from_links)
        plan.union_topology.addLink(l.lower, l.upper);
    for (const ClosLink &l : plan.attach)
        plan.union_topology.addLink(l.lower, l.upper);
    return plan;
}

TopologyTimeline
MorphPlan::liveTimeline(long long cycle, long long activate_delay) const
{
    if (cycle < 0 || activate_delay < 0)
        throw std::invalid_argument(
            "MorphPlan::liveTimeline: cycles must be >= 0");
    TopologyTimeline tl;
    tl.setInitialActive(from_terminals);
    // Commissioned switches: wired solely by attach events, i.e. they
    // touch a staged link but no from-link.  Union links split exactly
    // into from-links and staged links, so mark endpoints of each set.
    const std::size_t nsw =
        static_cast<std::size_t>(union_topology.numSwitches());
    std::vector<std::uint8_t> staged_end(nsw, 0), from_end(nsw, 0);
    for (const ClosLink &l : attach) {
        staged_end[static_cast<std::size_t>(l.lower)] = 1;
        staged_end[static_cast<std::size_t>(l.upper)] = 1;
    }
    std::vector<ClosLink> sorted_attach = attach;
    auto by_key = [](const ClosLink &a, const ClosLink &b) {
        return std::pair<int, int>(a.lower, a.upper) <
               std::pair<int, int>(b.lower, b.upper);
    };
    std::sort(sorted_attach.begin(), sorted_attach.end(), by_key);
    for (const ClosLink &l : union_topology.links()) {
        if (std::binary_search(sorted_attach.begin(), sorted_attach.end(),
                               l, by_key))
            continue;
        from_end[static_cast<std::size_t>(l.lower)] = 1;
        from_end[static_cast<std::size_t>(l.upper)] = 1;
    }
    for (std::size_t s = 0; s < nsw; ++s)
        if (staged_end[s] && !from_end[s])
            tl.addSwitch(cycle, static_cast<int>(s));
    for (const ClosLink &l : detach)
        tl.detach(cycle, l.lower, l.upper);
    for (const ClosLink &l : attach)
        tl.attach(cycle, l.lower, l.upper);
    if (to_terminals > from_terminals)
        tl.activateTerminals(cycle + activate_delay, to_terminals);
    return tl;
}

} // namespace rfc
