#include "routing/tables.hpp"

#include <algorithm>

namespace rfc {

namespace {

/**
 * Hash of a port mask with its trailing zero words dropped, so one port
 * set hashes alike at switches of any port count (splitmix64 rounds).
 */
std::uint64_t
maskHash(const std::uint64_t *mask, int words)
{
    while (words > 0 && mask[words - 1] == 0)
        --words;
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

/** Smallest power of two >= @p n. */
std::size_t
pow2AtLeast(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

ForwardingTables::ForwardingTables(const FoldedClos &fc,
                                   const UpDownOracle &oracle)
    : leaves_(fc.numLeaves()), switches_(fc.numSwitches())
{
    pool_off_.push_back(0);
    dict_off_.reserve(static_cast<std::size_t>(switches_) + 1);
    dict_off_.push_back(0);
    entry_off_.reserve(static_cast<std::size_t>(switches_) + 1);
    entry_off_.push_back(0);
    entry_width_.reserve(static_cast<std::size_t>(switches_));

    const LinkFaultState *faults = oracle.faultOverlay();
    const int levels = fc.levels();
    const auto leaves = static_cast<std::size_t>(leaves_);
    const std::size_t lw = (leaves + 63) / 64;  // words per leaf bitset

    // Global intern table (freed after construction), keyed by the
    // set's mask words with trailing zero words dropped.
    std::vector<std::uint32_t> pool_slots(1024, 0);
    std::vector<std::uint64_t> pool_hash, pool_mask;
    std::vector<std::size_t> pool_mask_off{0};
    auto intern = [&](const std::uint64_t *mask, int words,
                      std::uint64_t h) {
        while (words > 0 && mask[words - 1] == 0)
            --words;
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
        for (int w = 0; w < words; ++w)
            for (std::uint64_t bits = mask[w]; bits; bits &= bits - 1)
                pool_ports_.push_back(static_cast<std::uint16_t>(
                    w * 64 + __builtin_ctzll(bits)));
        pool_off_.push_back(static_cast<std::int64_t>(pool_ports_.size()));
        if (2 * pool_hash.size() > pool_slots.size()) {
            pool_slots.assign(2 * pool_slots.size(), 0);
            for (std::uint32_t g = 0; g < pool_hash.size(); ++g)
                pool_slots[probe(pool_slots, pool_hash[g],
                                 [](std::uint32_t) { return false; })] =
                    g + 1;
        }
        return gid;
    };

    // Per-switch scratch.  need[k * lw + w]: word w of the leaves whose
    // minimal ascent from this switch is k up hops (k >= 1).
    std::vector<std::uint64_t> need(static_cast<std::size_t>(levels) * lw);
    std::vector<int> alive_up;
    std::vector<const std::uint64_t *> parent_reach;  // alive_up x (l-1)
    std::vector<std::uint64_t> masks;     // leaves x words port masks
    std::vector<std::uint32_t> gids;      // per-dest pool id, one switch
    std::vector<std::uint32_t> local_ids; // per-dest local id
    std::vector<std::uint32_t> dict;      // this switch's pool ids
    std::vector<std::uint32_t> local_first;  // local id -> first dest
    std::vector<std::uint32_t> local_size;   // local id -> port count
    std::vector<std::uint64_t> local_hash;
    std::vector<std::uint32_t> local_slots(pow2AtLeast(2 * leaves + 1), 0);
    std::vector<std::size_t> used_slots;

    for (int sw = 0; sw < switches_; ++sw) {
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
            const auto &below = oracle.below(down[i]).words();
            for (std::size_t w = 0; w < lw; ++w)
                if (below[w])
                    mark(w, below[w], port >> 6,
                         std::uint64_t{1} << (port & 63));
        }

        // need >= 1: every alive parent that reaches the leaf with one
        // up hop fewer.  A run of parents with equal bits in a word (all
        // of a fat-tree switch's parents) shares one pass over them.
        if (n_up > 0) {
            for (int k = 1; k < levels; ++k) {
                const auto &hi = oracle.reach(sw, k).words();
                const auto &lo = oracle.reach(sw, k - 1).words();
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
                for (int k = 1; k < levels; ++k)
                    parent_reach.push_back(
                        oracle.reach(up[static_cast<std::size_t>(i)], k - 1)
                            .words()
                            .data());
            }
            const auto nk = static_cast<std::size_t>(levels - 1);
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

        // Dedup the row's masks in leaf order, so local ids follow first
        // occurrence at this switch and pool ids first occurrence in
        // (switch, leaf) order; each set new to the switch is interned.
        gids.resize(leaves);
        local_ids.resize(leaves);
        dict.clear();
        local_first.clear();
        local_size.clear();
        local_hash.clear();
        std::uint32_t max_gid = 0;
        for (std::size_t d = 0; d < leaves; ++d) {
            const std::uint64_t *m = masks.data() + d * stride;
            std::uint32_t lid;
            if (d > 0 && sameMask(m, m - words, words)) {
                lid = local_ids[d - 1];
            } else {
                const std::uint64_t h = maskHash(m, words);
                const std::size_t at =
                    probe(local_slots, h, [&](std::uint32_t id) {
                        return local_hash[id] == h &&
                               sameMask(m,
                                        masks.data() +
                                            local_first[id] * stride,
                                        words);
                    });
                if (local_slots[at] != 0) {
                    lid = local_slots[at] - 1;
                } else {
                    lid = static_cast<std::uint32_t>(dict.size());
                    local_slots[at] = lid + 1;
                    used_slots.push_back(at);
                    local_first.push_back(static_cast<std::uint32_t>(d));
                    local_hash.push_back(h);
                    std::uint32_t size = 0;
                    for (int w = 0; w < words; ++w)
                        size += static_cast<std::uint32_t>(
                            __builtin_popcountll(m[w]));
                    local_size.push_back(size);
                    const std::uint32_t gid = intern(m, words, h);
                    dict.push_back(gid);
                    max_gid = std::max(max_gid, gid);
                }
            }
            gids[d] = dict[lid];
            local_ids[d] = lid;
            if (local_size[lid] != 0) {
                ++populated_;
                total_ports_ += local_size[lid];
            }
        }
        for (std::size_t at : used_slots)
            local_slots[at] = 0;
        used_slots.clear();

        // Pick the cheaper encoding for this switch: a local dictionary
        // (1/2/4-byte entries + 4 bytes per distinct set) or direct
        // 24-bit pool ids (width 3, no dictionary).  RFC leaf switches
        // have a near-distinct set per destination, where the
        // dictionary costs more than it saves.
        const std::size_t distinct = dict.size();
        const std::uint8_t dict_width =
            distinct <= 0x100 ? 1 : (distinct <= 0x10000 ? 2 : 4);
        const long long dict_cost =
            static_cast<long long>(leaves_) * dict_width +
            static_cast<long long>(distinct) * 4;
        const long long direct_cost = static_cast<long long>(leaves_) * 3;
        const bool direct =
            max_gid < (1u << 24) && direct_cost < dict_cost;

        const std::uint8_t width = direct ? 3 : dict_width;
        const std::vector<std::uint32_t> &values =
            direct ? gids : local_ids;
        if (!direct)
            dict_ids_.insert(dict_ids_.end(), dict.begin(), dict.end());
        dict_off_.push_back(static_cast<std::int64_t>(dict_ids_.size()));

        entry_width_.push_back(width);
        const std::int64_t base = entry_off_.back();
        entry_bytes_.resize(static_cast<std::size_t>(base) +
                            static_cast<std::size_t>(leaves_) * width);
        std::uint8_t *out = entry_bytes_.data() + base;
        for (int d = 0; d < leaves_; ++d, out += width) {
            const std::uint32_t v = values[static_cast<std::size_t>(d)];
            if (width == 3) {
                out[0] = static_cast<std::uint8_t>(v);
                out[1] = static_cast<std::uint8_t>(v >> 8);
                out[2] = static_cast<std::uint8_t>(v >> 16);
            } else {
                std::memcpy(out, &v, width);
            }
        }
        entry_off_.push_back(base +
                             static_cast<std::int64_t>(leaves_) * width);
    }
}

void
ForwardingTables::setPorts(int sw, int dest_leaf,
                           std::vector<std::uint16_t> new_ports)
{
    const auto old = ports(sw, dest_leaf);
    if (!old.empty()) {
        --populated_;
        total_ports_ -= static_cast<long long>(old.size());
    }
    auto &entry = overrides_[entryKey(sw, dest_leaf)];
    entry = std::move(new_ports);
    if (!entry.empty()) {
        ++populated_;
        total_ports_ += static_cast<long long>(entry.size());
    }
}

long long
ForwardingTables::memoryBytes() const
{
    auto bytes = [](const auto &v) {
        return static_cast<long long>(v.size() * sizeof(v[0]));
    };
    long long total = bytes(pool_ports_) + bytes(pool_off_) +
                      bytes(dict_ids_) + bytes(dict_off_) +
                      bytes(entry_bytes_) + bytes(entry_off_) +
                      bytes(entry_width_);
    for (const auto &[key, entry] : overrides_) {
        (void)key;
        total += static_cast<long long>(sizeof(key)) + bytes(entry);
    }
    return total;
}

double
ForwardingTables::compressionRatio() const
{
    const long long compressed = memoryBytes();
    if (compressed <= 0)
        return 0.0;
    return static_cast<double>(denseMemoryBytes()) /
           static_cast<double>(compressed);
}

} // namespace rfc
