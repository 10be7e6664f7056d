#include "graph/algorithms.hpp"

#include <algorithm>
#include <numeric>

namespace rfc {

std::vector<int>
bfsDistances(const Graph &g, int src)
{
    std::vector<int> dist(g.numVertices(), kUnreachable);
    std::vector<int> queue;
    queue.reserve(g.numVertices());
    dist[src] = 0;
    queue.push_back(src);
    for (std::size_t head = 0; head < queue.size(); ++head) {
        int u = queue[head];
        for (int v : g.neighbors(u)) {
            if (dist[v] == kUnreachable) {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    return dist;
}

int
eccentricity(const Graph &g, int src)
{
    auto dist = bfsDistances(g, src);
    int ecc = 0;
    for (int d : dist) {
        if (d == kUnreachable)
            return kUnreachable;
        ecc = std::max(ecc, d);
    }
    return ecc;
}

int
diameterExact(const Graph &g)
{
    int diam = 0;
    for (int u = 0; u < g.numVertices(); ++u) {
        int e = eccentricity(g, u);
        if (e == kUnreachable)
            return kUnreachable;
        diam = std::max(diam, e);
    }
    return diam;
}

bool
isConnected(const Graph &g)
{
    if (g.numVertices() == 0)
        return true;
    auto dist = bfsDistances(g, 0);
    return std::find(dist.begin(), dist.end(), kUnreachable) == dist.end();
}

UnionFind::UnionFind(int n)
    : parent_(n), size_(n, 1), components_(n)
{
    std::iota(parent_.begin(), parent_.end(), 0);
}

int
UnionFind::find(int x)
{
    while (parent_[x] != x) {
        parent_[x] = parent_[parent_[x]];
        x = parent_[x];
    }
    return x;
}

bool
UnionFind::unite(int a, int b)
{
    a = find(a);
    b = find(b);
    if (a == b)
        return false;
    if (size_[a] < size_[b])
        std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    --components_;
    return true;
}

} // namespace rfc
