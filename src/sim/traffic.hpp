/**
 * @file
 * Synthetic datacenter traffic patterns (Section 6 of the paper,
 * adapted from the Blue Gene/Q evaluation suite).
 *
 *  - uniform: every packet picks a fresh destination uniformly at
 *    random among the other compute nodes.
 *  - random-pairing: nodes are paired once, uniformly at random; each
 *    node sends only to its partner (a random permutation built from
 *    2-cycles).
 *  - fixed-random: each node picks one uniformly random destination at
 *    start-up and keeps it; several nodes may choose the same target,
 *    creating hot spots.
 *
 * Two extra patterns are provided for extended studies: a tunable
 * hotspot and a uniform random permutation.
 */
#ifndef RFC_SIM_TRAFFIC_HPP
#define RFC_SIM_TRAFFIC_HPP

#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace rfc {

/** Destination chooser for synthetic traffic. */
class Traffic
{
  public:
    virtual ~Traffic() = default;

    /** Prepare for @p nodes terminals (called once before simulation). */
    virtual void init(long long nodes, Rng &rng) = 0;

    /** Destination terminal for a new packet from @p src. */
    virtual long long dest(long long src, Rng &rng) = 0;

    /**
     * Live expansion support: restrict destinations to the active
     * prefix [0, n) of the terminals (n grows as activation barriers
     * fire, never past the init() count).  Default: ignored - fixed
     * assignments (pairing, permutation, fixed-random) are drawn over
     * the full terminal set at init() and would need re-randomization
     * to honor a prefix, which would break their "fixed" semantics.
     * Prefix-aware patterns (uniform) override this so no packet ever
     * targets a terminal that cannot yet source traffic.
     */
    virtual void setActiveTerminals(long long n) { (void)n; }
};

/** Fresh uniform destination per packet (excluding the source). */
class UniformTraffic : public Traffic
{
  public:
    void init(long long nodes, Rng &rng) override;
    long long dest(long long src, Rng &rng) override;

    /** Draw destinations from the active prefix only. */
    void setActiveTerminals(long long n) override;

  private:
    long long nodes_ = 0;
    long long active_ = 0;  //!< destination pool size (== nodes_ ungated)
};

/** Random pairing: a random perfect matching of the nodes. */
class RandomPairingTraffic : public Traffic
{
  public:
    void init(long long nodes, Rng &rng) override;
    long long dest(long long src, Rng &rng) override;

  private:
    std::vector<long long> partner_;
};

/** Fixed random destination per source, collisions allowed. */
class FixedRandomTraffic : public Traffic
{
  public:
    void init(long long nodes, Rng &rng) override;
    long long dest(long long src, Rng &rng) override;

  private:
    std::vector<long long> dest_;
};

/** Uniform random permutation (fixed, no 2-cycle structure imposed). */
class PermutationTraffic : public Traffic
{
  public:
    void init(long long nodes, Rng &rng) override;
    long long dest(long long src, Rng &rng) override;

  private:
    std::vector<long long> perm_;
};

/**
 * Hotspot: with probability @p hot_fraction the packet goes to one of
 * @p hotspots fixed hot nodes, otherwise uniform.
 */
class HotspotTraffic : public Traffic
{
  public:
    /** @throws std::invalid_argument unless @p hot_fraction is in [0, 1]. */
    HotspotTraffic(double hot_fraction, int hotspots);

    void init(long long nodes, Rng &rng) override;
    long long dest(long long src, Rng &rng) override;

  private:
    double hot_fraction_;
    int num_hotspots_;
    long long nodes_ = 0;
    std::vector<long long> hot_;
};

/**
 * Shift: terminal i sends to terminal (i + stride) mod N.  With stride
 * equal to the terminals-per-leaf count this becomes the adversarial
 * "every leaf floods its neighbor leaf" pattern: all of a leaf's
 * injection bandwidth targets a single destination leaf, stressing the
 * common-ancestor ECMP spread (the paper's Section 3 remark that RFCs
 * route adversarial permutations at well above 50%).
 */
class ShiftTraffic : public Traffic
{
  public:
    explicit ShiftTraffic(long long stride) : stride_(stride) {}

    void init(long long nodes, Rng &rng) override;
    long long dest(long long src, Rng &rng) override;

  private:
    long long stride_;
    long long nodes_ = 0;
};

/** Factory by name: uniform | random-pairing | fixed-random | permutation. */
std::unique_ptr<Traffic> makeTraffic(const std::string &name);

} // namespace rfc

#endif // RFC_SIM_TRAFFIC_HPP
