/**
 * @file
 * Port-level fabric description consumed by the VCT core engine.
 *
 * The engine is topology-agnostic: it only needs to know, for every
 * switch, how many ports it has and how out-ports wire to peer
 * in-ports, plus where each terminal attaches.  This struct is that
 * description, built either from a FoldedClos (up ports first, then
 * down ports, then terminal ports on the leaves) or from a direct
 * switch Graph (network ports in adjacency order, then terminal
 * ports on every switch).  Ports are identified by a global id (gid):
 * switch s owns gids [iport_off[s], iport_off[s] + n_ports[s]), and
 * the same gid names both the in-port and the out-port of a
 * bidirectional link endpoint.  Gids are int32: both builders reject
 * a fabric of more than INT32_MAX ports before sizing any per-port
 * array.
 */
#ifndef RFC_SIM_CORE_LAYOUT_HPP
#define RFC_SIM_CORE_LAYOUT_HPP

#include <cstdint>
#include <vector>

namespace rfc {

class FoldedClos;
class Graph;

struct FabricLayout
{
    int num_switches = 0;
    long long num_terms = 0;

    std::vector<std::int32_t> iport_off;  //!< per switch, port gid base
    std::vector<std::int32_t> n_net;      //!< network ports (terminals after)
    std::vector<std::int32_t> n_ports;    //!< total local ports
    std::vector<std::int32_t> n_up;       //!< folded Clos only (else empty)
    std::int64_t total_ports = 0;

    /** Per out gid: the peer in-port gid, or -1 (ejection port). */
    std::vector<std::int32_t> out_peer_iport;
    /** Per in gid: the feeding out gid, or -(terminal + 1). */
    std::vector<std::int32_t> feeder_out;
    /** Per port gid: owning switch. */
    std::vector<std::int32_t> port_owner;
    /** Per terminal: its injection in-port gid / attachment switch. */
    std::vector<std::int32_t> term_iport;
    std::vector<std::int32_t> term_switch;

    /**
     * Folded Clos: switch s exposes up(s) ports at local [0, n_up),
     * down(s) ports at [n_up, n_up + n_down), and - on the leaves -
     * terminalsPerLeaf() terminal ports after those (leaves have no
     * down switches, so terminal ports start at n_net = n_up).
     * @throws std::invalid_argument past INT32_MAX ports.
     */
    static FabricLayout fromFoldedClos(const FoldedClos &fc);

    /**
     * Direct network: switch s exposes degree(s) network ports in
     * adjacency order, then hosts_per_switch terminal ports.
     * @throws std::invalid_argument past INT32_MAX ports.
     */
    static FabricLayout fromGraph(const Graph &g, int hosts_per_switch);
};

} // namespace rfc

#endif // RFC_SIM_CORE_LAYOUT_HPP
