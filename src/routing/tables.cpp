#include "routing/tables.hpp"

#include <algorithm>

namespace rfc {

namespace {

/** Hash of a port mask's words (splitmix64 rounds). */
std::uint64_t
maskHash(const std::uint64_t *mask, int words)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < words; ++i) {
        h ^= mask[i];
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
        h ^= h >> 31;
    }
    return h;
}

bool
sameMask(const std::uint64_t *a, const std::uint64_t *b, int words)
{
    return std::equal(a, a + words, b);
}

/**
 * Linear probe of an open-addressing table of ids + 1 (0 = empty, size
 * a power of two): the slot of the id @p same accepts, or the empty
 * slot where a new id goes.
 */
template <class Same>
std::size_t
probe(const std::vector<std::uint32_t> &slots, std::uint64_t h, Same same)
{
    const std::size_t m = slots.size() - 1;
    std::size_t at = h & m;
    while (slots[at] != 0 && !same(slots[at] - 1))
        at = (at + 1) & m;
    return at;
}

} // namespace

void
forEachTableRow(const FoldedClos &fc, const UpDownOracle &oracle,
                const TableRowFn &row)
{
    const LinkFaultState *faults = oracle.faultOverlay();
    const int levels = fc.levels();
    const auto leaves = static_cast<std::size_t>(fc.numLeaves());
    const std::size_t lw = (leaves + 63) / 64;  // words per leaf bitset

    // Per-switch scratch.  need[k * lw + w]: word w of the leaves whose
    // minimal ascent from this switch is k up hops (k >= 1).
    std::vector<std::uint64_t> need(static_cast<std::size_t>(levels) * lw);
    std::vector<int> alive_up;
    std::vector<const std::uint64_t *> parent_reach;  // alive_up x ceiling
    std::vector<std::uint64_t> masks;  // leaves x words port masks

    for (int sw = 0; sw < fc.numSwitches(); ++sw) {
        const auto up = fc.up(sw);
        const auto down = fc.down(sw);
        const auto n_up = static_cast<int>(up.size());
        const int words = std::max<int>(
            1, (n_up + static_cast<int>(down.size()) + 63) / 64);
        const auto stride = static_cast<std::size_t>(words);
        masks.assign(leaves * stride, 0);

        // OR @p ports (bits of mask word @p pw) into the mask of every
        // leaf in @p bits (word @p w of a leaf bitset).
        auto mark = [&](std::size_t w, std::uint64_t bits, int pw,
                        std::uint64_t ports) {
            std::uint64_t *col = masks.data() + pw;
            for (; bits; bits &= bits - 1)
                col[(w * 64 + static_cast<std::size_t>(
                                  __builtin_ctzll(bits))) *
                    stride] |= ports;
        };

        // need == 0: every alive child whose subtree holds the leaf.
        for (std::size_t i = 0; i < down.size(); ++i) {
            if (faults && faults->downDead(sw, i))
                continue;
            const int port = n_up + static_cast<int>(i);
            const std::uint64_t *below = oracle.reachWords(down[i], 0);
            for (std::size_t w = 0; w < lw; ++w)
                if (below[w])
                    mark(w, below[w], port >> 6,
                         std::uint64_t{1} << (port & 63));
        }

        // need >= 1: every alive parent that reaches the leaf with one
        // up hop fewer.  A run of parents with equal bits in a word (all
        // of a fat-tree switch's parents) shares one pass over them.
        // Budgets stop at the switch's ceiling: past it no leaf is new.
        if (n_up > 0) {
            const int ceiling = levels - fc.levelOf(sw);
            for (int k = 1; k <= ceiling; ++k) {
                const std::uint64_t *hi = oracle.reachWords(sw, k);
                const std::uint64_t *lo = oracle.reachWords(sw, k - 1);
                for (std::size_t w = 0; w < lw; ++w)
                    need[static_cast<std::size_t>(k) * lw + w] =
                        hi[w] & ~lo[w];
            }
            alive_up.clear();
            parent_reach.clear();
            for (int i = 0; i < n_up; ++i) {
                if (faults && faults->upDead(sw, static_cast<std::size_t>(i)))
                    continue;
                alive_up.push_back(i);
                for (int k = 1; k <= ceiling; ++k)
                    parent_reach.push_back(oracle.reachWords(
                        up[static_cast<std::size_t>(i)], k - 1));
            }
            const auto nk = static_cast<std::size_t>(ceiling);
            for (std::size_t w = 0; w < lw; ++w) {
                std::uint64_t run_bits = 0, run_ports = 0;
                int run_word = 0;
                for (std::size_t a = 0; a < alive_up.size(); ++a) {
                    const int i = alive_up[a];
                    const std::uint64_t *const *pr =
                        parent_reach.data() + a * nk;
                    std::uint64_t bits = 0;
                    for (std::size_t k = 1; k <= nk; ++k)
                        bits |= pr[k - 1][w] & need[k * lw + w];
                    if (bits != run_bits || (i >> 6) != run_word) {
                        if (run_bits)
                            mark(w, run_bits, run_word, run_ports);
                        run_bits = bits;
                        run_ports = 0;
                        run_word = i >> 6;
                    }
                    run_ports |= std::uint64_t{1} << (i & 63);
                }
                if (run_bits)
                    mark(w, run_bits, run_word, run_ports);
            }
        }
        row(sw, masks.data(), words);
    }
}

ForwardingTables::ForwardingTables(const FoldedClos &fc,
                                   const UpDownOracle &oracle)
    : fc_(&fc), oracle_(&oracle), switches_(fc.numSwitches()),
      leaves_(fc.numLeaves())
{
    // Global intern table, keyed by the set's mask words with trailing
    // zero words dropped, so one port set is one pool entry at switches
    // of any port count.  last_sw[g]: the last switch that referenced
    // pool set g, so each switch counts its distinct sets once.
    std::vector<std::uint32_t> pool_slots(1024, 0);
    std::vector<std::uint64_t> pool_hash, pool_mask;
    std::vector<std::size_t> pool_mask_off{0};
    std::vector<int> last_sw;
    long long pool_ports = 0, row_bytes = 0;
    auto intern = [&](const std::uint64_t *mask, int words,
                      std::uint32_t size) {
        while (words > 0 && mask[words - 1] == 0)
            --words;
        const std::uint64_t h = maskHash(mask, words);
        const std::size_t at = probe(pool_slots, h, [&](std::uint32_t g) {
            return pool_hash[g] == h &&
                   pool_mask_off[g + 1] - pool_mask_off[g] ==
                       static_cast<std::size_t>(words) &&
                   sameMask(mask, pool_mask.data() + pool_mask_off[g],
                            words);
        });
        if (pool_slots[at] != 0)
            return pool_slots[at] - 1;
        const auto gid = static_cast<std::uint32_t>(pool_hash.size());
        pool_slots[at] = gid + 1;
        pool_hash.push_back(h);
        pool_mask.insert(pool_mask.end(), mask, mask + words);
        pool_mask_off.push_back(pool_mask.size());
        last_sw.push_back(-1);
        pool_ports += size;
        if (2 * pool_hash.size() > pool_slots.size()) {
            pool_slots.assign(2 * pool_slots.size(), 0);
            for (std::uint32_t g = 0; g < pool_hash.size(); ++g)
                pool_slots[probe(pool_slots, pool_hash[g],
                                 [](std::uint32_t) { return false; })] =
                    g + 1;
        }
        return gid;
    };

    forEachTableRow(fc, oracle, [&](int sw, const std::uint64_t *masks,
                                    int words) {
        // Intern each run of equal masks in leaf order, so pool ids
        // follow first occurrence in (switch, leaf) order.
        std::uint32_t size = 0, distinct = 0, max_gid = 0;
        for (long long d = 0; d < leaves_; ++d) {
            const std::uint64_t *m = masks + d * words;
            if (d == 0 || !sameMask(m, m - words, words)) {
                size = 0;
                for (int w = 0; w < words; ++w)
                    size += static_cast<std::uint32_t>(
                        __builtin_popcountll(m[w]));
                const std::uint32_t gid = intern(m, words, size);
                if (last_sw[gid] != sw) {
                    last_sw[gid] = sw;
                    ++distinct;
                    max_gid = std::max(max_gid, gid);
                }
            }
            if (size != 0) {
                ++populated_;
                total_ports_ += size;
            }
        }

        // The cheaper encoding for this switch: a local dictionary
        // (1/2/4-byte entries + 4 bytes per distinct set) or direct
        // 24-bit pool ids (width 3, no dictionary).  RFC leaf switches
        // have a near-distinct set per destination, where the
        // dictionary costs more than it saves.
        const long long dict_width =
            distinct <= 0x100 ? 1 : (distinct <= 0x10000 ? 2 : 4);
        const long long dict_cost = leaves_ * dict_width + distinct * 4LL;
        const long long direct_cost = leaves_ * 3;
        const bool direct = max_gid < (1u << 24) && direct_cost < dict_cost;
        row_bytes += direct ? direct_cost : dict_cost;
    });

    // 2-byte pool ports, 8-byte pool/dictionary/entry offsets, and one
    // width byte per switch.
    unique_sets_ = static_cast<long long>(pool_hash.size());
    memory_bytes_ = pool_ports * 2 + (unique_sets_ + 1) * 8 +
                    (switches_ + 1) * 16 + switches_ + row_bytes;
}

std::vector<std::uint16_t>
ForwardingTables::ports(int sw, int dest_leaf) const
{
    std::vector<std::uint16_t> out;
    std::vector<std::uint64_t> mask(
        static_cast<std::size_t>(oracle_->maskWords()));
    const int need = oracle_->nextHops(*fc_, sw, dest_leaf, false,
                                       mask.data());
    const int base = need == 0 ? static_cast<int>(fc_->up(sw).size()) : 0;
    for (std::size_t w = 0; w < mask.size(); ++w)
        for (std::uint64_t m = mask[w]; m; m &= m - 1)
            out.push_back(static_cast<std::uint16_t>(
                base + static_cast<int>(64 * w) + __builtin_ctzll(m)));
    return out;
}

double
ForwardingTables::compressionRatio() const
{
    if (memory_bytes_ <= 0)
        return 0.0;
    return static_cast<double>(denseMemoryBytes()) /
           static_cast<double>(memory_bytes_);
}

} // namespace rfc
