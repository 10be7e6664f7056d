/**
 * @file
 * Shared worker pool and data-parallel primitives for experiments.
 *
 * Every paper artifact is an embarrassingly parallel grid of
 * independent simulation trials; this module supplies the mechanism to
 * exploit that: a persistent ThreadPool plus parallelFor built on a
 * chunked atomic work index (dynamic load balancing without per-item
 * locking).  Determinism is the caller's contract: work items
 * must not share mutable state, and anything order-dependent (seeds,
 * result slots) must be keyed by the item index, never by thread or
 * completion order.  The ExperimentEngine (src/exp) follows exactly
 * that discipline, which is why its output is bit-identical at any
 * --jobs value.
 */
#ifndef RFC_UTIL_THREADPOOL_HPP
#define RFC_UTIL_THREADPOOL_HPP

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rfc {

/**
 * Fixed-size pool of worker threads executing submitted tasks.
 *
 * Workers live for the lifetime of the pool, so repeated parallelFor
 * calls (one per sweep, per figure, per test) pay thread start-up cost
 * once.  A pool of size 0 is valid and means "caller runs everything
 * inline" - the degenerate serial mode used by --jobs 1.
 */
class ThreadPool
{
  public:
    /**
     * Create @p threads workers.  @p threads <= 0 selects
     * hardwareConcurrency() - 1 (the caller participates in
     * parallelFor, so total parallelism is the full machine).
     */
    explicit ThreadPool(int threads = -1);

    /** Drains the queue and joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (0 = serial pool). */
    int size() const { return static_cast<int>(workers_.size()); }

    /** Enqueue one task; runs on some worker, at some point. */
    void submit(std::function<void()> task);

    /** std::thread::hardware_concurrency with a floor of 1. */
    static int hardwareConcurrency();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::vector<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

namespace detail {

/** Shared completion state for one parallelFor call. */
struct ForState
{
    std::atomic<std::size_t> next{0};
    std::size_t total = 0;
    std::size_t chunk = 1;
    std::atomic<int> pending{0};   //!< helper tasks still running
    std::atomic<bool> failed{false};  //!< early-exit hint for peers
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr error;  //!< first exception wins (under mutex)

    template <typename Fn>
    void
    drain(Fn &fn)
    {
        for (;;) {
            std::size_t begin = next.fetch_add(chunk);
            if (begin >= total)
                return;
            std::size_t end = std::min(begin + chunk, total);
            for (std::size_t i = begin; i < end; ++i) {
                // Stale false just means extra work before stopping.
                if (failed.load(std::memory_order_relaxed))
                    return;
                try {
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (!error)
                        error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        }
    }
};

} // namespace detail

/**
 * Run fn(i) for every i in [0, n), distributing indices over the pool's
 * workers plus the calling thread.  Blocks until all items finish (or
 * the first exception, which is rethrown on the caller).  Items must be
 * independent; completion order is unspecified, so determinism requires
 * indexing any output by i.  A null or empty @p pool, or n == 1, runs
 * every item inline on the caller in index order.
 */
template <typename Fn>
void
parallelFor(ThreadPool *pool, std::size_t n, Fn &&fn)
{
    if (n == 0)
        return;
    if (pool == nullptr || pool->size() == 0 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto state = std::make_shared<detail::ForState>();
    state->total = n;
    // Chunking amortizes the atomic per item; 4 chunks per thread keeps
    // dynamic balancing for unequal trial costs (big vs small networks).
    std::size_t parts = static_cast<std::size_t>(pool->size()) + 1;
    state->chunk = std::max<std::size_t>(1, n / (parts * 4));

    int helpers = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(pool->size()), n));
    state->pending.store(helpers);
    for (int t = 0; t < helpers; ++t) {
        pool->submit([state, &fn]() {
            state->drain(fn);
            if (state->pending.fetch_sub(1) == 1) {
                std::lock_guard<std::mutex> lock(state->mutex);
                state->done.notify_all();
            }
        });
    }

    state->drain(fn);
    {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->done.wait(lock,
                         [&] { return state->pending.load() == 0; });
    }
    if (state->error)
        std::rethrow_exception(state->error);
}

/**
 * Build @p n fixed ranges and fold them in index order without holding
 * them all at once.  Ranges are built in waves as wide as the pool
 * (its workers plus the caller; one range when @p pool is null): for
 * each range i of a wave, build(i, part) fills a default-constructed
 * Part on some thread; then the caller runs merge(i, part) for the
 * wave's ranges in index order and frees their parts before the next
 * wave starts.  Every merge call therefore sees the same parts in the
 * same order at any pool size and in any completion order, and at most
 * one wave of parts is alive.  An exception from build or merge stops
 * the fold and is rethrown on the caller.
 */
template <typename Part, typename Build, typename Merge>
void
parallelWaves(ThreadPool *pool, std::size_t n, Build &&build, Merge &&merge)
{
    const std::size_t width =
        pool == nullptr ? 1 : static_cast<std::size_t>(pool->size()) + 1;
    std::vector<Part> wave(std::min(width, n));
    for (std::size_t lo = 0; lo < n; lo += wave.size()) {
        const std::size_t m = std::min(wave.size(), n - lo);
        parallelFor(pool, m,
                    [&](std::size_t k) { build(lo + k, wave[k]); });
        for (std::size_t k = 0; k < m; ++k) {
            merge(lo + k, wave[k]);
            wave[k] = Part();
        }
    }
}

} // namespace rfc

#endif // RFC_UTIL_THREADPOOL_HPP
