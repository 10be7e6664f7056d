/**
 * @file
 * Property-based testing core for randomized correctness checking.
 *
 * The paper's claims are invariants - Theorem 4.2 common-ancestor
 * coverage, deadlock-free up/down routing bounded by 2(l-1) hops,
 * biregular inter-level wiring - and randomized constructions fail in
 * rare, size-dependent ways that fixed-seed example tests never see.
 * This module runs a property over hundreds of generated instances,
 * ramping the instance size across cases, and on failure greedily
 * shrinks to a minimal counterexample.  Every case derives its own
 * seed from the suite's base seed, and a failing property reports that
 * seed plus the shrunk counterexample, so any failure replays exactly
 * with replayOne().
 *
 * Domain generators (random topology parameters, fault plans,
 * expansion plans) live in prop.cpp; the forAll() engine is generic.
 */
#ifndef RFC_CHECK_PROP_HPP
#define RFC_CHECK_PROP_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "clos/folded_clos.hpp"
#include "util/rng.hpp"

namespace rfc {

/** Outcome of a single invariant check (ok, or a diagnostic message). */
struct CheckResult
{
    bool ok = true;
    std::string message;

    static CheckResult pass() { return {true, {}}; }

    static CheckResult
    fail(std::string msg)
    {
        return {false, std::move(msg)};
    }
};

/** Configuration of one forAll() run. */
struct PropConfig
{
    int cases = 100;          //!< generated instances to test
    std::uint64_t seed = 1;   //!< base seed (per-case seeds derive from it)
    int min_size = 1;         //!< size bound for the first case
    int max_size = 50;        //!< size bound for the last case (linear ramp)
    int max_shrink_steps = 400;  //!< cap on accepted shrink steps
};

/** Outcome of a forAll() run, with replay data on failure. */
struct PropResult
{
    bool passed = true;
    int cases_run = 0;
    std::uint64_t failing_seed = 0;  //!< per-case seed of the first failure
    int failing_size = 0;            //!< size bound of the failing case
    int failing_case = -1;
    int shrink_steps = 0;            //!< accepted shrinks toward the minimum
    std::string counterexample;      //!< description of the shrunk value
    std::string message;             //!< invariant diagnostic for it

    /**
     * Human-readable failure report: case index, seed and size (the
     * replayOne() coordinates) plus the shrunk counterexample.  Empty
     * when the property passed.
     */
    std::string report() const;
};

/** Per-case seed: deterministic function of the base seed and index. */
std::uint64_t propCaseSeed(std::uint64_t base_seed, int case_index);

/**
 * Check @p property over @p cfg.cases generated instances.
 *
 * @param generate Builds a value from a fresh per-case Rng and a size
 *        bound (ramped linearly from cfg.min_size to cfg.max_size).
 * @param property Empty-ok CheckResult predicate over the value.
 * @param shrink Optional: candidate smaller values, tried in order;
 *        the first still-failing candidate is recursed on (greedy
 *        descent, bounded by cfg.max_shrink_steps).
 * @param describe Optional: renders the counterexample for the report.
 */
template <typename T>
PropResult
forAll(const PropConfig &cfg,
       const std::function<T(Rng &, int)> &generate,
       const std::function<CheckResult(const T &)> &property,
       const std::function<std::vector<T>(const T &)> &shrink = {},
       const std::function<std::string(const T &)> &describe = {})
{
    PropResult res;
    for (int i = 0; i < cfg.cases; ++i) {
        int size =
            cfg.cases <= 1
                ? cfg.max_size
                : cfg.min_size + static_cast<int>(
                      static_cast<long long>(cfg.max_size - cfg.min_size) *
                      i / (cfg.cases - 1));
        std::uint64_t case_seed = propCaseSeed(cfg.seed, i);
        Rng rng(case_seed);
        T value = generate(rng, size);
        CheckResult r = property(value);
        ++res.cases_run;
        if (r.ok)
            continue;

        res.passed = false;
        res.failing_seed = case_seed;
        res.failing_size = size;
        res.failing_case = i;

        // Greedy shrink: take the first failing candidate, repeat.
        if (shrink) {
            bool progressed = true;
            while (progressed && res.shrink_steps < cfg.max_shrink_steps) {
                progressed = false;
                for (T &cand : shrink(value)) {
                    CheckResult cr = property(cand);
                    if (!cr.ok) {
                        value = std::move(cand);
                        r = std::move(cr);
                        ++res.shrink_steps;
                        progressed = true;
                        break;
                    }
                }
            }
        }
        res.message = r.message;
        res.counterexample = describe ? describe(value) : std::string();
        return res;
    }
    return res;
}

/**
 * Re-run one case exactly as forAll() did: same seed, same size.  Use
 * the seed/size pair printed by PropResult::report() to reproduce a CI
 * failure locally.
 */
template <typename T>
CheckResult
replayOne(std::uint64_t case_seed, int size,
          const std::function<T(Rng &, int)> &generate,
          const std::function<CheckResult(const T &)> &property)
{
    Rng rng(case_seed);
    T value = generate(rng, size);
    return property(value);
}

// --- domain generators ---------------------------------------------

/**
 * Parameters of one random folded Clos instance.  The wiring seed is
 * split from the generator stream so a shrunk parameter set still
 * identifies one concrete topology.
 */
struct TopoParams
{
    int radix = 4;             //!< even switch radix R >= 4
    int levels = 2;            //!< levels l >= 2
    int n1 = 2;                //!< even leaf count
    std::uint64_t wiring_seed = 0;
};

/** Random RFC parameters; larger @p size allows larger networks. */
TopoParams genTopoParams(Rng &rng, int size);

/** Shrink candidates: halve/decrement each dimension toward minimum. */
std::vector<TopoParams> shrinkTopoParams(const TopoParams &p);

/** "radix=R levels=l n1=N seed=S" (replay line for reports). */
std::string describeTopoParams(const TopoParams &p);

/** Build the concrete (unchecked) RFC wiring for @p p. */
FoldedClos materializeTopo(const TopoParams &p);

/** A topology plus a number of random link faults to inject. */
struct FaultPlan
{
    TopoParams topo;
    int faults = 0;            //!< links to remove
    std::uint64_t fault_seed = 0;
};

/** Random fault plan over a random topology. */
FaultPlan genFaultPlan(Rng &rng, int size);

/** Shrink topology dimensions first, then the fault count. */
std::vector<FaultPlan> shrinkFaultPlan(const FaultPlan &p);

std::string describeFaultPlan(const FaultPlan &p);

/** Materialize the topology with the plan's faults applied. */
FoldedClos materializeFaulted(const FaultPlan &p);

} // namespace rfc

#endif // RFC_CHECK_PROP_HPP
