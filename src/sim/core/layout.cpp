#include "sim/core/layout.hpp"

#include <algorithm>

#include "clos/folded_clos.hpp"
#include "graph/graph.hpp"

namespace rfc {

FabricLayout
FabricLayout::fromFoldedClos(const FoldedClos &fc)
{
    FabricLayout lay;
    lay.num_switches = fc.numSwitches();
    lay.num_terms = fc.numTerminals();
    const int tpl = fc.terminalsPerLeaf();

    lay.iport_off.resize(lay.num_switches);
    lay.n_net.resize(lay.num_switches);
    lay.n_ports.resize(lay.num_switches);
    lay.n_up.resize(lay.num_switches);
    std::int64_t off = 0;
    for (int s = 0; s < lay.num_switches; ++s) {
        auto ups = static_cast<std::int32_t>(fc.up(s).size());
        auto downs = static_cast<std::int32_t>(fc.down(s).size());
        int term_ports = fc.levelOf(s) == 1 ? tpl : 0;
        lay.n_up[s] = ups;
        lay.n_net[s] = ups + downs;
        lay.n_ports[s] = ups + downs + term_ports;
        lay.iport_off[s] = static_cast<std::int32_t>(off);
        off += lay.n_ports[s];
    }
    lay.total_ports = off;

    lay.out_peer_iport.assign(lay.total_ports, -1);
    lay.feeder_out.assign(lay.total_ports, -1);
    lay.port_owner.resize(lay.total_ports);
    for (int s = 0; s < lay.num_switches; ++s)
        for (int p = 0; p < lay.n_ports[s]; ++p)
            lay.port_owner[lay.iport_off[s] + p] = s;

    for (int s = 0; s < lay.num_switches; ++s) {
        const auto &up = fc.up(s);
        for (std::size_t i = 0; i < up.size(); ++i) {
            int p = up[i];
            const auto &pd = fc.down(p);
            auto it = std::find(pd.begin(), pd.end(), s);
            auto j = static_cast<std::int32_t>(it - pd.begin());
            std::int64_t out_gid = lay.iport_off[s] +
                                   static_cast<int>(i);
            std::int64_t peer_iport = lay.iport_off[p] + lay.n_up[p] + j;
            lay.out_peer_iport[out_gid] = peer_iport;
            lay.feeder_out[peer_iport] =
                static_cast<std::int32_t>(out_gid);
        }
        const auto &down = fc.down(s);
        for (std::size_t j = 0; j < down.size(); ++j) {
            int c = down[j];
            const auto &cu = fc.up(c);
            auto it = std::find(cu.begin(), cu.end(), s);
            auto i = static_cast<std::int32_t>(it - cu.begin());
            std::int64_t out_gid = lay.iport_off[s] + lay.n_up[s] +
                                   static_cast<int>(j);
            std::int64_t peer_iport = lay.iport_off[c] + i;
            lay.out_peer_iport[out_gid] = peer_iport;
            lay.feeder_out[peer_iport] =
                static_cast<std::int32_t>(out_gid);
        }
    }

    lay.term_iport.resize(lay.num_terms);
    lay.term_switch.resize(lay.num_terms);
    for (long long t = 0; t < lay.num_terms; ++t) {
        int leaf = static_cast<int>(t / tpl);
        std::int64_t gid = lay.iport_off[leaf] + lay.n_net[leaf] +
                           (t % tpl);
        lay.term_iport[t] = gid;
        lay.term_switch[t] = leaf;
        lay.feeder_out[gid] =
            static_cast<std::int32_t>(-(t + 1));
    }
    return lay;
}

FabricLayout
FabricLayout::fromGraph(const Graph &g, int hosts_per_switch)
{
    FabricLayout lay;
    lay.num_switches = g.numVertices();
    lay.num_terms =
        static_cast<long long>(lay.num_switches) * hosts_per_switch;

    lay.iport_off.resize(lay.num_switches);
    lay.n_net.resize(lay.num_switches);
    lay.n_ports.resize(lay.num_switches);
    std::int64_t off = 0;
    for (int s = 0; s < lay.num_switches; ++s) {
        lay.n_net[s] = g.degree(s);
        lay.n_ports[s] = lay.n_net[s] + hosts_per_switch;
        lay.iport_off[s] = static_cast<std::int32_t>(off);
        off += lay.n_ports[s];
    }
    lay.total_ports = off;

    lay.out_peer_iport.assign(lay.total_ports, -1);
    lay.feeder_out.assign(lay.total_ports, -1);
    lay.port_owner.resize(lay.total_ports);
    for (int s = 0; s < lay.num_switches; ++s)
        for (int p = 0; p < lay.n_ports[s]; ++p)
            lay.port_owner[lay.iport_off[s] + p] = s;

    for (int s = 0; s < lay.num_switches; ++s) {
        const auto &adj = g.neighbors(s);
        for (std::size_t i = 0; i < adj.size(); ++i) {
            int peer = adj[i];
            const auto &back = g.neighbors(peer);
            auto it = std::find(back.begin(), back.end(), s);
            auto j = static_cast<std::int32_t>(it - back.begin());
            std::int64_t out_gid = lay.iport_off[s] +
                                   static_cast<int>(i);
            std::int64_t peer_iport = lay.iport_off[peer] + j;
            lay.out_peer_iport[out_gid] = peer_iport;
            lay.feeder_out[peer_iport] =
                static_cast<std::int32_t>(out_gid);
        }
    }

    lay.term_iport.resize(lay.num_terms);
    lay.term_switch.resize(lay.num_terms);
    for (long long t = 0; t < lay.num_terms; ++t) {
        int sw = static_cast<int>(t / hosts_per_switch);
        std::int64_t gid = lay.iport_off[sw] + lay.n_net[sw] +
                           (t % hosts_per_switch);
        lay.term_iport[t] = gid;
        lay.term_switch[t] = sw;
        lay.feeder_out[gid] =
            static_cast<std::int32_t>(-(t + 1));
    }
    return lay;
}

} // namespace rfc
