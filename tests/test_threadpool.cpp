/**
 * @file
 * Tests for the worker pool and data-parallel primitives.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/threadpool.hpp"

namespace rfc {
namespace {

TEST(ThreadPool, HardwareConcurrencyHasFloorOfOne)
{
    EXPECT_GE(ThreadPool::hardwareConcurrency(), 1);
}

TEST(ThreadPool, SizeMatchesRequestedWorkers)
{
    ThreadPool p0(0);
    EXPECT_EQ(p0.size(), 0);
    ThreadPool p3(3);
    EXPECT_EQ(p3.size(), 3);
}

TEST(ThreadPool, DestructorDrainsSubmittedTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, SerialPoolRunsSubmittedTasksInline)
{
    ThreadPool pool(0);
    int ran = 0;
    pool.submit([&ran] { ++ran; });
    EXPECT_EQ(ran, 1);  // no workers: submit() executes immediately
}

TEST(ParallelFor, EmptyRangeIsANoOp)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    parallelFor(&pool, 0, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    // Far more items than threads: exercises chunked hand-out.
    const std::size_t n = 10000;
    ThreadPool pool(3);
    std::vector<std::atomic<int>> visits(n);
    parallelFor(&pool, n,
                [&](std::size_t i) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, SerialPoolStillCoversTheRange)
{
    ThreadPool pool(0);
    std::vector<int> visits(257, 0);
    parallelFor(&pool, visits.size(),
                [&](std::size_t i) { visits[i] += 1; });
    EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 257);
}

TEST(ParallelFor, NullPoolRunsInlineInIndexOrder)
{
    std::vector<std::size_t> order;
    parallelFor(nullptr, 5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    parallelFor(nullptr, 0, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order.size(), 5u);
    EXPECT_THROW(parallelFor(nullptr, 3,
                             [](std::size_t i) {
                                 if (i == 1)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, ExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(parallelFor(&pool, 1000,
                             [](std::size_t i) {
                                 if (i == 37)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, PoolIsReusableAfterAnException)
{
    ThreadPool pool(2);
    try {
        parallelFor(&pool, 100, [](std::size_t) {
            throw std::runtime_error("boom");
        });
    } catch (const std::runtime_error &) {
    }
    std::atomic<int> ran{0};
    parallelFor(&pool, 100, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 100);
}

TEST(ParallelFor, IndexedWritesIdenticalAcrossPoolSizes)
{
    // Each item writes only its own slot, so the result is the same
    // for any pool size and completion order.
    auto run = [](int threads) {
        ThreadPool pool(threads);
        std::vector<double> out(777);
        parallelFor(&pool, out.size(), [&](std::size_t i) {
            out[i] = static_cast<double>(i) * 0.3 + 1.0;
        });
        return out;
    };
    auto serial = run(0);
    EXPECT_EQ(serial, run(3));
    EXPECT_EQ(serial, run(8));
}

/** A part that counts how many parts are alive. */
struct LivePart
{
    static std::atomic<int> alive;
    int range = -1;
    LivePart() { ++alive; }
    LivePart(const LivePart &o) : range(o.range) { ++alive; }
    LivePart &operator=(const LivePart &) = default;
    ~LivePart() { --alive; }
};
std::atomic<int> LivePart::alive{0};

TEST(ParallelWaves, MergesInIndexOrderOneWaveAtATime)
{
    ThreadPool p0(0), p1(1), p3(3);
    for (ThreadPool *pool : {static_cast<ThreadPool *>(nullptr), &p0, &p1,
                             &p3}) {
        // A null pool works one range at a time, a pool of w workers
        // w + 1 at a time; the last wave of 13 ranges is partial.
        const int width = pool ? pool->size() + 1 : 1;
        std::vector<int> merged;
        int peak = 0;
        parallelWaves<LivePart>(
            pool, 13,
            [&](std::size_t i, LivePart &part) {
                EXPECT_EQ(part.range, -1);  // every part starts fresh
                part.range = static_cast<int>(i);
            },
            [&](std::size_t i, LivePart &part) {
                EXPECT_EQ(part.range, static_cast<int>(i));
                merged.push_back(part.range);
                peak = std::max(peak, LivePart::alive.load());
            });
        std::vector<int> want(13);
        std::iota(want.begin(), want.end(), 0);
        EXPECT_EQ(merged, want) << "width " << width;
        EXPECT_EQ(peak, std::min(width, 13)) << "width " << width;
        EXPECT_EQ(LivePart::alive.load(), 0);
    }
    // No ranges: neither callback runs.
    parallelWaves<LivePart>(
        &p3, 0, [](std::size_t, LivePart &) { ADD_FAILURE(); },
        [](std::size_t, LivePart &) { ADD_FAILURE(); });
}

TEST(ParallelWaves, ExceptionStopsTheFold)
{
    ThreadPool pool(3);
    std::vector<std::size_t> merged;
    EXPECT_THROW(parallelWaves<int>(
                     &pool, 32,
                     [](std::size_t i, int &part) {
                         if (i == 9)
                             throw std::runtime_error("range 9");
                         part = static_cast<int>(i);
                     },
                     [&](std::size_t i, int &) { merged.push_back(i); }),
                 std::runtime_error);
    // Waves of four: ranges 0-7 merged, the wave holding 9 was not.
    EXPECT_EQ(merged.size(), 8u);
}

} // namespace
} // namespace rfc
