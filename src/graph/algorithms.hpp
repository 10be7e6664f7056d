/**
 * @file
 * Graph algorithms for topological characterization: BFS distances,
 * diameter, connectivity, and a union-find helper used by the resiliency
 * experiments (Table 3).
 */
#ifndef RFC_GRAPH_ALGORITHMS_HPP
#define RFC_GRAPH_ALGORITHMS_HPP

#include <vector>

#include "graph/graph.hpp"

namespace rfc {

/** Distance label for unreachable vertices. */
constexpr int kUnreachable = -1;

/** BFS distances from @p src (kUnreachable where disconnected). */
std::vector<int> bfsDistances(const Graph &g, int src);

/** Max finite distance from @p src; kUnreachable if any vertex unreachable. */
int eccentricity(const Graph &g, int src);

/** Exact diameter (all-sources BFS); kUnreachable if disconnected. */
int diameterExact(const Graph &g);

/** True iff the graph is connected (empty graphs count as connected). */
bool isConnected(const Graph &g);

/** Disjoint-set forest with union by size and path halving. */
class UnionFind
{
  public:
    explicit UnionFind(int n);

    /** Representative of @p x 's set. */
    int find(int x);

    /** Merge the sets of a and b; returns true if they were distinct. */
    bool unite(int a, int b);

    /** Number of disjoint sets remaining. */
    int components() const { return components_; }

  private:
    std::vector<int> parent_;
    std::vector<int> size_;
    int components_;
};

} // namespace rfc

#endif // RFC_GRAPH_ALGORITHMS_HPP
