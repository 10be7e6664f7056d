/**
 * @file
 * Compact dynamic bitset used by the up/down reachability oracle.
 *
 * The routing oracle hands out its per-switch leaf sets as these (its
 * own storage is one flat word array), so this type is optimized for
 * bulk OR and popcount.
 */
#ifndef RFC_UTIL_BITSET_HPP
#define RFC_UTIL_BITSET_HPP

#include <cassert>
#include <cstdint>
#include <vector>

namespace rfc {

/** Fixed-size (after construction) bitset with word-level bulk operations. */
class DynBitset
{
  public:
    DynBitset() = default;

    /** Construct with @p n bits, all clear. */
    explicit DynBitset(std::size_t n)
        : size_(n), words_((n + 63) / 64, 0)
    {}

    /**
     * Construct with @p n bits copied from @p words[0, ceil(n / 64)),
     * bit i at words[i / 64] bit i % 64; bits at and past @p n must be
     * clear.
     */
    DynBitset(std::size_t n, const std::uint64_t *words)
        : size_(n), words_(words, words + (n + 63) / 64)
    {}

    std::size_t size() const { return size_; }

    void
    set(std::size_t i)
    {
        assert(i < size_);
        words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
    }

    bool
    test(std::size_t i) const
    {
        assert(i < size_);
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /** Bitwise OR-assign; sizes must match. */
    DynBitset &
    operator|=(const DynBitset &o)
    {
        assert(size_ == o.size_);
        for (std::size_t i = 0; i < words_.size(); ++i)
            words_[i] |= o.words_[i];
        return *this;
    }

    /** Bitwise AND-assign; sizes must match. */
    DynBitset &
    operator&=(const DynBitset &o)
    {
        assert(size_ == o.size_);
        for (std::size_t i = 0; i < words_.size(); ++i)
            words_[i] &= o.words_[i];
        return *this;
    }

    /** Number of set bits. */
    std::size_t
    count() const
    {
        std::size_t c = 0;
        for (auto w : words_)
            c += static_cast<std::size_t>(__builtin_popcountll(w));
        return c;
    }

    /** True iff every bit in [0, size) is set. */
    bool
    all() const
    {
        if (size_ == 0)
            return true;
        std::size_t full = size_ / 64;
        for (std::size_t i = 0; i < full; ++i)
            if (words_[i] != ~std::uint64_t{0})
                return false;
        std::size_t rem = size_ & 63;
        if (rem) {
            std::uint64_t mask = (std::uint64_t{1} << rem) - 1;
            if ((words_[full] & mask) != mask)
                return false;
        }
        return true;
    }

    /** True iff at least one bit is set. */
    bool
    any() const
    {
        for (auto w : words_)
            if (w)
                return true;
        return false;
    }

    bool
    operator==(const DynBitset &o) const
    {
        return size_ == o.size_ && words_ == o.words_;
    }

    /**
     * The backing words, bit i at words()[i / 64] bit i % 64.  Bits at
     * and past size() are always clear.
     */
    const std::vector<std::uint64_t> &words() const { return words_; }

  private:
    std::size_t size_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace rfc

#endif // RFC_UTIL_BITSET_HPP
