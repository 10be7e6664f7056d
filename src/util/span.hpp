/**
 * @file
 * Minimal contiguous-view type for the CSR adjacency layer.
 *
 * The representation refactor stores adjacency in flat pooled arrays;
 * accessors hand out non-owning views into those arrays instead of
 * references to per-switch vectors.  A tiny
 * local span (rather than std::span) keeps the interface drop-in for
 * existing call sites: it supports range-for, indexing, size/empty,
 * and - crucially for the test suite - element-wise operator== and
 * container-style iterator typedefs so gtest can compare and print
 * views directly.
 *
 * Views are invalidated by any mutation of the owning structure
 * (addLink/removeLink), exactly like iterators into a
 * std::vector.  Callers that mutate while iterating must copy first.
 */
#ifndef RFC_UTIL_SPAN_HPP
#define RFC_UTIL_SPAN_HPP

#include <cstddef>

namespace rfc {

template <typename T> class Span
{
  public:
    using value_type = T;
    using iterator = const T *;
    using const_iterator = const T *;

    Span() = default;
    Span(const T *data, std::size_t size) : data_(data), size_(size) {}

    const T *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    const T &operator[](std::size_t i) const { return data_[i]; }
    const T &front() const { return data_[0]; }
    const T &back() const { return data_[size_ - 1]; }

    friend bool
    operator==(const Span &a, const Span &b)
    {
        if (a.size_ != b.size_)
            return false;
        for (std::size_t i = 0; i < a.size_; ++i)
            if (!(a.data_[i] == b.data_[i]))
                return false;
        return true;
    }

    friend bool
    operator!=(const Span &a, const Span &b)
    {
        return !(a == b);
    }

  private:
    const T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace rfc

#endif // RFC_UTIL_SPAN_HPP
