/**
 * @file
 * Unit tests for DynBitset, the oracle's reachability set type.
 */
#include <gtest/gtest.h>

#include "util/bitset.hpp"

namespace rfc {
namespace {

TEST(DynBitset, StartsClear)
{
    DynBitset b(100);
    EXPECT_EQ(b.size(), 100u);
    EXPECT_EQ(b.count(), 0u);
    EXPECT_FALSE(b.any());
    EXPECT_FALSE(b.all());
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_FALSE(b.test(i));
}

TEST(DynBitset, SetAndTest)
{
    DynBitset b(130);
    b.set(0);
    b.set(63);
    b.set(64);
    b.set(129);
    EXPECT_TRUE(b.test(0));
    EXPECT_TRUE(b.test(63));
    EXPECT_TRUE(b.test(64));
    EXPECT_TRUE(b.test(129));
    EXPECT_FALSE(b.test(1));
    EXPECT_FALSE(b.test(65));
    EXPECT_EQ(b.count(), 4u);
}

TEST(DynBitset, AllOnWordBoundaries)
{
    for (std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
        DynBitset b(n);
        for (std::size_t i = 0; i + 1 < n; ++i)
            b.set(i);
        EXPECT_FALSE(b.all()) << "n=" << n;
        b.set(n - 1);
        EXPECT_TRUE(b.all()) << "n=" << n;
        EXPECT_EQ(b.count(), n);
    }
}

TEST(DynBitset, AllIgnoresPaddingBits)
{
    DynBitset b(70);
    for (std::size_t i = 0; i < 70; ++i)
        b.set(i);
    // Bits 70..127 of the second word are padding and must not matter.
    EXPECT_TRUE(b.all());
}

TEST(DynBitset, OrAssign)
{
    DynBitset a(100), b(100);
    a.set(1);
    a.set(99);
    b.set(2);
    b.set(99);
    a |= b;
    EXPECT_TRUE(a.test(1));
    EXPECT_TRUE(a.test(2));
    EXPECT_TRUE(a.test(99));
    EXPECT_EQ(a.count(), 3u);
}

TEST(DynBitset, AndAssign)
{
    DynBitset a(100), b(100);
    a.set(1);
    a.set(50);
    b.set(50);
    b.set(99);
    a &= b;
    EXPECT_EQ(a.count(), 1u);
    EXPECT_TRUE(a.test(50));
}

TEST(DynBitset, Equality)
{
    DynBitset a(64), b(64), c(65);
    a.set(3);
    b.set(3);
    EXPECT_TRUE(a == b);
    b.set(4);
    EXPECT_FALSE(a == b);
    EXPECT_FALSE(a == c);  // size mismatch
}

TEST(DynBitset, EmptyBitset)
{
    DynBitset b(0);
    EXPECT_TRUE(b.all());
    EXPECT_FALSE(b.any());
    EXPECT_EQ(b.count(), 0u);
}

} // namespace
} // namespace rfc
