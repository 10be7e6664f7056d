/**
 * @file
 * Contract test for the engine <-> policy CongestionView interface
 * (sim/core/congestion.hpp).
 *
 * A MockPolicy wrapping the oblivious UpDownPolicy instruments every
 * hook the engine is documented to call with a view - injection,
 * route resolution, output-VC selection - and audits what the view
 * exposes at each call:
 *
 *  - the hooks actually fire (counts > 0), and an inject that
 *    returns -1 leaves the packet untouched,
 *  - now() never runs backwards,
 *  - credits stay within [0, bufPackets] and backlog within
 *    [0, vcs * bufPackets] for every port of the deciding switch.
 *
 * When the library is built with -DRFC_CHECK_INVARIANTS=ON, the
 * engine's own credit-conservation guards run alongside these audits;
 * the test requires both to come back clean, tying the view's numbers
 * to the invariant-guard counters.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "check/guard.hpp"
#include "clos/fat_tree.hpp"
#include "routing/updown.hpp"
#include "sim/core/config.hpp"
#include "sim/core/engine.hpp"
#include "sim/core/layout.hpp"
#include "sim/core/policy_updown.hpp"
#include "sim/traffic.hpp"

namespace rfc {
namespace {

/** Outlives the policy the engine takes by value. */
struct MockStats
{
    long long inject_calls = 0;
    long long inject_success = 0;
    long long failed_writes = 0;  //!< failed injects that wrote the Pkt
    long long route_calls = 0;
    long long choose_calls = 0;
    long long bounds_violations = 0;
    long long nonmonotone_now = 0;
    int vcs = 0;
    int buf = 0;
};

class MockPolicy
{
  public:
    using Pkt = UpDownPolicy::Pkt;

    MockPolicy(const FoldedClos &fc, const UpDownOracle &oracle,
               const FabricLayout &lay, const SimConfig &cfg,
               std::shared_ptr<MockStats> stats)
        : base_(fc, oracle, lay, cfg), stats_(std::move(stats))
    {
        stats_->vcs = cfg.vcs;
        stats_->buf = cfg.buf_packets;
    }

    bool routable(long long term, long long dest)
    {
        return base_.routable(term, dest);
    }

    int
    inject(const CongestionView &cv, long long term, std::int32_t dest,
           Rng &rng, Pkt &p)
    {
        ++stats_->inject_calls;
        observeNow(cv);
        const std::int8_t *credits = cv.injCredits(term);
        for (int v = 0; v < stats_->vcs; ++v) {
            const int c = credits[v];
            if (c < 0 || c > stats_->buf)
                ++stats_->bounds_violations;
        }
        // A marked packet shows whether a failed inject wrote to it.
        std::memset(&p, 0xA5, sizeof p);
        Pkt marked;
        std::memcpy(&marked, &p, sizeof p);
        const int vc = base_.inject(cv, term, dest, rng, p);
        if (vc >= 0)
            ++stats_->inject_success;
        else if (std::memcmp(&marked, &p, sizeof p) != 0)
            ++stats_->failed_writes;
        return vc;
    }

    int
    routeOut(const CongestionView &cv, int s, Pkt &p, Rng &rng,
             bool &sole)
    {
        ++stats_->route_calls;
        observeNow(cv);
        auditSwitch(cv, s);
        return base_.routeOut(cv, s, p, rng, sole);
    }

    void
    vcRange(const Pkt &p, int &lo, int &hi) const
    {
        base_.vcRange(p, lo, hi);
    }

    int
    chooseOutVc(const CongestionView &cv, std::int64_t o_gid,
                const Pkt &p, Rng &rng)
    {
        ++stats_->choose_calls;
        for (int v = 0; v < stats_->vcs; ++v) {
            const int c = cv.credit(o_gid, v);
            if (c < 0 || c > stats_->buf)
                ++stats_->bounds_violations;
        }
        return base_.chooseOutVc(cv, o_gid, p, rng);
    }

    void onForward(Pkt &p) { base_.onForward(p); }

    double hopsOf(const Pkt &p) const { return base_.hopsOf(p); }

  private:
    void
    observeNow(const CongestionView &cv)
    {
        if (cv.now() < last_now_)
            ++stats_->nonmonotone_now;
        last_now_ = cv.now();
    }

    /** Audit every network out port of the deciding switch. */
    void
    auditSwitch(const CongestionView &cv, int s)
    {
        const FabricLayout &lay = cv.layout();
        const std::int64_t base = cv.portBase(s);
        const int vcs = stats_->vcs;
        const int buf = stats_->buf;
        for (std::int32_t o = 0; o < lay.n_net[s]; ++o) {
            const std::int64_t gid = base + o;
            int used = 0;
            for (int v = 0; v < vcs; ++v) {
                const int c = cv.credit(gid, v);
                if (c < 0 || c > buf)
                    ++stats_->bounds_violations;
                used += buf - c;
            }
            // backlog() must agree with the per-VC credit sum and stay
            // within the physical buffer capacity.
            const int b = cv.backlog(gid);
            if (b != used || b < 0 || b > vcs * buf)
                ++stats_->bounds_violations;
        }
    }

    UpDownPolicy base_;
    std::shared_ptr<MockStats> stats_;
    long long last_now_ = -1;
};

SimConfig
mockConfig()
{
    SimConfig cfg;
    cfg.warmup = 200;
    cfg.measure = 800;
    cfg.load = 0.7;
    cfg.seed = 31;
    return cfg;
}

std::shared_ptr<MockStats>
runMock(const SimConfig &cfg = mockConfig())
{
    auto fc = buildCft(8, 2);
    UpDownOracle oracle(fc);
    FabricLayout lay = FabricLayout::fromFoldedClos(fc);
    UniformTraffic traffic;
    cfg.validate();

    auto stats = std::make_shared<MockStats>();
    VctEngine<MockPolicy> engine(
        lay, traffic, cfg, MockPolicy(fc, oracle, lay, cfg, stats));
    SimResult r = engine.run();
    EXPECT_GT(r.delivered_packets, 0);

    // The engine's own conservation guards (active when built with
    // -DRFC_CHECK_INVARIANTS=ON) must agree with what the view showed.
    EXPECT_EQ(engine.checkContext().violations(), 0)
        << engine.checkContext().summary();
    if (invariantChecksEnabled()) {
        EXPECT_GT(engine.checkContext().checksPerformed(), 0);
    }
    return stats;
}

void
expectCleanContract(const MockStats &s)
{
    // All three view hooks fire...
    EXPECT_GT(s.inject_calls, 0);
    EXPECT_GT(s.route_calls, 0);
    EXPECT_GT(s.choose_calls, 0);
    // ...a failed injection leaves the packet as it was...
    EXPECT_LE(s.inject_success, s.inject_calls);
    EXPECT_EQ(s.failed_writes, 0);
    // ...and every view read stayed inside the documented bounds.
    EXPECT_EQ(s.bounds_violations, 0);
    EXPECT_EQ(s.nonmonotone_now, 0);
}

TEST(PolicyContract, HooksFireAndReadsStayInBounds)
{
    auto stats = runMock();
    expectCleanContract(*stats);
}

TEST(PolicyContract, FailedInjectionWritesNothing)
{
    // One-packet buffers at full load: injections run out of credit,
    // after the Valiant intermediate draw that precedes the VC choice.
    SimConfig cfg = mockConfig();
    cfg.load = 1.0;
    cfg.vcs = 2;
    cfg.buf_packets = 1;
    cfg.route_mode = RouteMode::kValiant;
    auto stats = runMock(cfg);
    expectCleanContract(*stats);
    EXPECT_LT(stats->inject_success, stats->inject_calls);
}

} // namespace
} // namespace rfc
