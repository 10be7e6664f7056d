/**
 * @file
 * Unit tests for the Graph type and basic algorithms.
 */
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"

namespace rfc {
namespace {

Graph
pathGraph(int n)
{
    Graph g(n);
    for (int i = 0; i + 1 < n; ++i)
        g.addEdge(i, i + 1);
    return g;
}

Graph
cycleGraph(int n)
{
    Graph g = pathGraph(n);
    g.addEdge(n - 1, 0);
    return g;
}

Graph
completeGraph(int n)
{
    Graph g(n);
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            g.addEdge(i, j);
    return g;
}

TEST(Graph, BasicAccessors)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    EXPECT_EQ(g.numVertices(), 4);
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.degree(1), 2);
    EXPECT_EQ(g.degree(3), 0);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_FALSE(g.hasEdge(0, 2));
    EXPECT_EQ(g.minDegree(), 0);
    EXPECT_EQ(g.maxDegree(), 2);
}

TEST(Graph, EdgesListEachOnce)
{
    Graph g = completeGraph(5);
    auto e = g.edges();
    EXPECT_EQ(e.size(), 10u);
    for (auto [u, v] : e)
        EXPECT_LT(u, v);
}

TEST(Graph, IsRegular)
{
    EXPECT_TRUE(cycleGraph(6).isRegular(2));
    EXPECT_FALSE(pathGraph(6).isRegular(2));
    EXPECT_TRUE(completeGraph(5).isRegular(4));
}

TEST(Bfs, DistancesOnPath)
{
    auto g = pathGraph(5);
    auto d = bfsDistances(g, 0);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(d[i], i);
}

TEST(Bfs, UnreachableMarked)
{
    Graph g(3);
    g.addEdge(0, 1);
    auto d = bfsDistances(g, 0);
    EXPECT_EQ(d[2], kUnreachable);
}

TEST(Diameter, Cycle)
{
    EXPECT_EQ(diameterExact(cycleGraph(10)), 5);
    EXPECT_EQ(diameterExact(cycleGraph(11)), 5);
}

TEST(Diameter, Complete)
{
    EXPECT_EQ(diameterExact(completeGraph(7)), 1);
}

TEST(Diameter, Path)
{
    EXPECT_EQ(diameterExact(pathGraph(9)), 8);
}

TEST(Diameter, DisconnectedReturnsUnreachable)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(2, 3);
    EXPECT_EQ(diameterExact(g), kUnreachable);
}

TEST(Connectivity, ConnectedAndNot)
{
    EXPECT_TRUE(isConnected(cycleGraph(5)));
    Graph g(2);
    EXPECT_FALSE(isConnected(g));
    EXPECT_TRUE(isConnected(Graph(0)));
    EXPECT_TRUE(isConnected(Graph(1)));
}

TEST(UnionFind, MergesAndCounts)
{
    UnionFind uf(5);
    EXPECT_EQ(uf.components(), 5);
    EXPECT_TRUE(uf.unite(0, 1));
    EXPECT_TRUE(uf.unite(2, 3));
    EXPECT_EQ(uf.components(), 3);
    EXPECT_FALSE(uf.unite(1, 0));
    EXPECT_TRUE(uf.unite(0, 2));
    EXPECT_EQ(uf.components(), 2);
    EXPECT_EQ(uf.find(3), uf.find(1));
    EXPECT_NE(uf.find(4), uf.find(0));
}

} // namespace
} // namespace rfc
