/**
 * @file
 * Umbrella header: the full public API of the RFC networks library.
 *
 * Reproduction of "Random Folded Clos Topologies for Datacenter
 * Networks" (Camarero, Martinez, Beivide - HPCA 2017).
 *
 * Typical usage:
 * @code
 *   rfc::Rng rng(42);
 *   auto built = rfc::buildRfc(36, 3, 648, rng);   // R=36, 3 levels
 *   rfc::UpDownOracle oracle(built.topology);
 *   rfc::UniformTraffic traffic;
 *   rfc::SimConfig cfg;
 *   cfg.load = 0.6;
 *   rfc::Simulator sim(built.topology, oracle, traffic, cfg);
 *   auto result = sim.run();
 * @endcode
 */
#ifndef RFC_RFC_HPP
#define RFC_RFC_HPP

#include "analysis/cost.hpp"
#include "analysis/fault_sweep.hpp"
#include "analysis/resiliency.hpp"
#include "analysis/scalability.hpp"
#include "clos/expansion.hpp"
#include "clos/fat_tree.hpp"
#include "clos/faults.hpp"
#include "clos/folded_clos.hpp"
#include "clos/galois.hpp"
#include "clos/oft.hpp"
#include "clos/projective.hpp"
#include "clos/rfc.hpp"
#include "clos/serialize.hpp"
#include "exp/experiment.hpp"
#include "flow/demand.hpp"
#include "flow/paths.hpp"
#include "flow/solver.hpp"
#include "graph/algorithms.hpp"
#include "graph/bisection.hpp"
#include "graph/graph.hpp"
#include "graph/ksp.hpp"
#include "graph/random_bipartite.hpp"
#include "graph/random_regular.hpp"
#include "graph/spectral.hpp"
#include "routing/ksp_tables.hpp"
#include "routing/tables.hpp"
#include "routing/updown.hpp"
#include "sim/direct.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/bitset.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

#endif // RFC_RFC_HPP
