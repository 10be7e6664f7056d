#include "routing/updown.hpp"

#include <new>
#include <stdexcept>

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

/**
 * Interns rows into an oracle's pool: open addressing over the rows'
 * 32-bit hashes, at most half full; a slot keeps the hash and the
 * row's pool offset.  Lives only for one build.
 */
class RowInterner
{
  public:
    /** The empty slot's offset; the pool stays below it, so every
     *  row's offset is a valid one. */
    static constexpr std::uint32_t kEmpty = UINT32_MAX;

    explicit RowInterner(std::size_t row_words) : row_words_(row_words)
    {
        slots_.assign(1024, Slot{});
    }

    /**
     * Offset of the first row of @p pool equal to the row at @p off,
     * or @p off itself when that row is new (it is remembered then).
     */
    std::uint32_t
    intern(const std::uint64_t *pool, std::uint32_t off)
    {
        const std::uint64_t *row = pool + off;
        const std::uint32_t h = hashRow(row);
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            const Slot &slot = slots_[i];
            if (slot.off == kEmpty)
                break;
            if (slot.hash == h &&
                std::equal(row, row + row_words_, pool + slot.off))
                return slot.off;
        }
        if (2 * ++count_ > slots_.size())
            grow();
        insert(Slot{h, off});
        return off;
    }

  private:
    struct Slot
    {
        std::uint32_t hash = 0;
        std::uint32_t off = kEmpty;
    };

    /** Four independent multiply-xorshift lanes, folded at the end. */
    std::uint32_t
    hashRow(const std::uint64_t *row) const
    {
        auto mix = [](std::uint64_t h, std::uint64_t w) {
            h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
            return h ^ (h >> 32);
        };
        const std::size_t n = row_words_;
        std::uint64_t h0 = n, h1 = 1, h2 = 2, h3 = 3;
        std::size_t w = 0;
        for (; w + 4 <= n; w += 4) {
            h0 = mix(h0, row[w]);
            h1 = mix(h1, row[w + 1]);
            h2 = mix(h2, row[w + 2]);
            h3 = mix(h3, row[w + 3]);
        }
        for (; w < n; ++w)
            h0 = mix(h0, row[w]);
        return static_cast<std::uint32_t>(mix(mix(mix(h0, h1), h2), h3));
    }

    void
    insert(Slot slot)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = slot.hash & mask;
        while (slots_[i].off != kEmpty)
            i = (i + 1) & mask;
        slots_[i] = slot;
    }

    void
    grow()
    {
        std::vector<Slot> old(2 * slots_.size());
        old.swap(slots_);
        for (const Slot &slot : old)
            if (slot.off != kEmpty)
                insert(slot);
    }

    std::size_t row_words_;
    std::size_t count_ = 0;
    std::vector<Slot> slots_;
};

} // namespace

UpDownOracle::WordPool::WordPool(const WordPool &o)
{
    if (o.size_ == 0)
        return;
    reallocate(o.size_);
    std::copy_n(o.data_, o.size_, data_);
    size_ = o.size_;
}

void
UpDownOracle::WordPool::reallocate(std::size_t capacity)
{
    void *p = std::realloc(data_, capacity * sizeof(std::uint64_t));
    if (!p)
        throw std::bad_alloc();
    data_ = static_cast<std::uint64_t *>(p);
    capacity_ = capacity;
}

std::uint64_t *
UpDownOracle::WordPool::extend(std::size_t words)
{
    if (size_ + words > capacity_)
        reallocate(std::max(size_ + words, 2 * capacity_));
    size_ += words;
    return data_ + size_ - words;
}

void
UpDownOracle::WordPool::shrinkToFit()
{
    if (size_ != 0 && size_ < capacity_)
        reallocate(size_);
}

bool
UpDownOracle::WordPool::operator==(const WordPool &o) const
{
    return size_ == o.size_ && std::equal(data_, data_ + size_, o.data_);
}

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
    row_words_ = (static_cast<std::size_t>(num_leaves_) + 63) / 64;
    first_.resize(static_cast<std::size_t>(levels_));
    for (int lv = 0; lv < levels_; ++lv)
        first_[static_cast<std::size_t>(lv)] = fc.levelOffset(lv + 1);

    // One run per switch: c + 1 own rows, c blocks of parents, children.
    base_.resize(static_cast<std::size_t>(s_count));
    std::size_t entries = 0;
    for (int s = 0; s < s_count; ++s) {
        const auto c = static_cast<std::size_t>(levels_ - 1 - levelIndex(s));
        base_[static_cast<std::size_t>(s)] =
            static_cast<std::uint32_t>(entries);
        entries += c + 1 + c * fc.up(s).size() + fc.down(s).size();
    }
    if (entries > UINT32_MAX)
        throw std::length_error(
            "UpDownOracle: row offsets exceed 32-bit run bases");
    offs_.assign(entries, 0);
    pool_.clear();
    RowInterner interner(row_words_);
    auto own = [&](int s) {
        return offs_.data() + base_[static_cast<std::size_t>(s)];
    };
    // Each row is computed in a scratch row at the pool's end, starting
    // from the row at offset *first (or from zeros), and kept only if
    // it is new.
    auto scratch = [&](const std::uint32_t *first) {
        if (pool_.size() + row_words_ > RowInterner::kEmpty)
            throw std::length_error(
                "UpDownOracle: distinct rows exceed 32-bit offsets");
        std::uint64_t *row = pool_.extend(row_words_);
        if (first)
            std::copy_n(pool_.data() + *first, row_words_, row);
        else
            std::fill_n(row, row_words_, std::uint64_t{0});
        return row;
    };
    // The scratch row lies past every interned row: no overlap.
    auto orRow = [&](std::uint64_t *__restrict row, std::uint32_t src) {
        const std::uint64_t *__restrict words = pool_.data() + src;
        const std::size_t n = row_words_;
        for (std::size_t w = 0; w < n; ++w)
            row[w] |= words[w];
    };
    auto intern = [&](std::uint32_t *slot) {
        const auto off =
            static_cast<std::uint32_t>(pool_.size() - row_words_);
        *slot = interner.intern(pool_.data(), off);
        if (*slot != off)
            pool_.truncate(off);
    };

    // reach_0 = below: bottom-up accumulation over alive down links.
    for (int leaf = 0; leaf < num_leaves_; ++leaf) {
        scratch(nullptr)[static_cast<std::size_t>(leaf) >> 6] |=
            std::uint64_t{1} << (leaf & 63);
        intern(own(leaf));
    }
    for (int s = num_leaves_; s < s_count; ++s) {
        std::uint64_t *row = scratch(nullptr);
        const auto down = fc.down(s);
        for (std::size_t i = 0; i < down.size(); ++i)
            if (downAlive(s, i))
                orRow(row, own(down[i])[0]);
        intern(own(s));
    }

    // reach_j[s] = reach_{j-1}[s] | reach_{j-1}[p] over alive parents p,
    // for j up to s's ceiling.  Top-down, so the parents' rows are done.
    for (int lv = levels_ - 2; lv >= 0; --lv) {
        const int lo = fc.levelOffset(lv + 1);
        const int hi = lo + fc.switchesAtLevel(lv + 1);
        for (int j = 1; j <= levels_ - 1 - lv; ++j)
            for (int s = lo; s < hi; ++s) {
                std::uint64_t *row = scratch(own(s) + j - 1);
                const auto up = fc.up(s);
                for (std::size_t i = 0; i < up.size(); ++i)
                    if (upAlive(s, i))
                        orRow(row, own(up[i])[j - 1]);
                intern(own(s) + j);
            }
    }
    pool_.shrinkToFit();

    // The neighbours' entries: parents' budgets below the ceiling, then
    // the children's budget 0.
    for (int s = 0; s < s_count; ++s) {
        const auto c = static_cast<std::size_t>(levels_ - 1 - levelIndex(s));
        std::uint32_t *next = own(s) + c + 1;
        const auto up = fc.up(s);
        for (std::size_t j = 0; j < c; ++j)
            for (std::size_t i = 0; i < up.size(); ++i)
                *next++ = own(up[i])[j];
        for (const int child : fc.down(s))
            *next++ = own(child)[0];
    }
}

bool
UpDownOracle::sameTables(const UpDownOracle &o) const
{
    return levels_ == o.levels_ && num_leaves_ == o.num_leaves_ &&
           first_ == o.first_ && base_ == o.base_ && offs_ == o.offs_ &&
           pool_ == o.pool_;
}

int
UpDownOracle::minUps(int s, int dest_leaf) const
{
    const int ceiling = levels_ - 1 - levelIndex(s);
    const std::uint32_t *own = run(s);
    for (int j = 0; j <= ceiling; ++j)
        if (hasLeaf(pool_.data() + own[j], dest_leaf))
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
