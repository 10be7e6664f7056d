#include "routing/tables.hpp"

#include <algorithm>
#include <bit>

namespace rfc {

namespace {

/** splitmix64's finaliser: a bijection on 64-bit words. */
std::uint64_t
mix64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Key of a port set of @p words words with no trailing zero word: the
 * mixed word itself for at most one word (a bijection, so equal keys
 * are equal sets), else a hash of the words and their count.
 */
std::uint64_t
setKey(const std::uint64_t *mask, int words)
{
    if (words <= 1)
        return mix64(words == 1 ? mask[0] : 0);
    std::uint64_t h = static_cast<std::uint64_t>(words);
    for (int i = 0; i < words; ++i)
        h = mix64(h ^ mask[i]);
    return h;
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
    // A set is keyed by its mask words with trailing zero words
    // dropped, so one port set is one pool entry at switches of any
    // port count.  Each switch dedupes its runs' sets in `local`, whose
    // slots count only while stamped with that switch, and lists them
    // in first-occurrence order in `sets`; only those are looked up in
    // the global set, so pool ids follow first occurrence in (switch,
    // leaf) order.
    struct Local
    {
        int sw = -1, set = 0;  // stamp, index into `sets`
    };
    struct Set
    {
        std::uint64_t key;
        int leaf, words, size;  // first leaf, trimmed words, popcount
    };
    // A global slot holds its set's key, pool id + 1 (0 = empty) and,
    // for a set of two or more words, 1 + the offset of its word count
    // in `multi`, which stores each such set's count and words (0 for
    // one word, whose key alone decides equality).
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t id = 0, at = 0;
    };
    constexpr std::size_t kAhead = 8;  // global slots prefetched ahead
    std::vector<Local> local(
        std::bit_ceil(2 * static_cast<std::size_t>(leaves_)));
    std::vector<Set> sets;
    std::vector<Slot> slots(1024);
    std::vector<std::uint64_t> multi;
    long long pool_ports = 0, row_bytes = 0;

    // Pool id of @p s (words @p m), added to the pool when new.
    auto poolId = [&](const Set &s, const std::uint64_t *m) {
        std::size_t at = s.key & (slots.size() - 1);
        for (; slots[at].id != 0; at = (at + 1) & (slots.size() - 1)) {
            const Slot &g = slots[at];
            if (g.key == s.key && (g.at == 0) == (s.words <= 1) &&
                (g.at == 0 ||
                 (multi[g.at - 1] == static_cast<std::uint64_t>(s.words) &&
                  std::equal(m, m + s.words, multi.begin() + g.at))))
                return g.id - 1;
        }
        const auto gid = static_cast<std::uint32_t>(unique_sets_++);
        slots[at] = {s.key, gid + 1, 0};
        if (s.words > 1) {
            multi.push_back(static_cast<std::uint64_t>(s.words));
            slots[at].at = static_cast<std::uint32_t>(multi.size());
            multi.insert(multi.end(), m, m + s.words);
        }
        pool_ports += s.size;
        if (4 * static_cast<std::size_t>(unique_sets_) > 3 * slots.size()) {
            std::vector<Slot> old(2 * slots.size());
            old.swap(slots);
            for (const Slot &g : old) {
                if (g.id == 0)
                    continue;
                std::size_t to = g.key & (slots.size() - 1);
                while (slots[to].id != 0)
                    to = (to + 1) & (slots.size() - 1);
                slots[to] = g;
            }
        }
        return gid;
    };

    forEachTableRow(fc, oracle, [&](int sw, const std::uint64_t *masks,
                                    int words) {
        // One local lookup per run of equal masks, one popcount per
        // distinct set.
        sets.clear();
        for (long long d = 0, e = 0; d < leaves_; d = e) {
            const std::uint64_t *m = masks + d * words;
            // The run ends at the entry holding the first word that
            // differs from the word one entry before it.
            const std::uint64_t *p =
                std::mismatch(m + words, masks + leaves_ * words, m).first;
            e = p - m < 2 * words ? d + 1 : (p - masks) / words;
            int n = words;
            while (n > 0 && m[n - 1] == 0)
                --n;
            const std::uint64_t key = setKey(m, n);
            std::size_t at = key & (local.size() - 1);
            while (local[at].sw == sw &&
                   !(sets[local[at].set].key == key &&
                     (words == 1 ||
                      std::equal(m, m + words,
                                 masks + sets[local[at].set].leaf * words))))
                at = (at + 1) & (local.size() - 1);
            if (local[at].sw != sw) {
                int size = 0;
                for (int w = 0; w < n; ++w)
                    size += __builtin_popcountll(m[w]);
                local[at] = {sw, static_cast<int>(sets.size())};
                sets.push_back({key, static_cast<int>(d), n, size});
            }
            const int size = sets[local[at].set].size;
            populated_ += size != 0 ? e - d : 0;
            total_ports_ += (e - d) * size;
        }

        std::uint32_t max_gid = 0;
        for (std::size_t i = 0; i < sets.size(); ++i) {
            if (i + kAhead < sets.size())
                __builtin_prefetch(slots.data() + (sets[i + kAhead].key &
                                                   (slots.size() - 1)));
            max_gid = std::max(
                max_gid, poolId(sets[i], masks + sets[i].leaf * words));
        }
        const auto distinct = static_cast<long long>(sets.size());

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
