/**
 * @file
 * Visualize: regenerate the paper's topology illustrations as Graphviz
 * DOT files.
 *
 *   figure1.dot - the 4-commodity fat-tree (CFT, R=4, l=4)
 *   figure2.dot - the 2-level orthogonal fat-tree (order 2)
 *   figure4.dot - an RFC of radix 4, N1=16, 4 levels
 *   custom.dot  - any topology via --topo {cft|oft|rfc} --radix/--levels
 *
 * Render with: dot -Tsvg figure1.dot -o figure1.svg
 *
 * Usage: visualize [--out-dir DIR] [--topo NAME --radix R --levels L
 *                   --leaves N1 --seed S]
 */
#include <fstream>
#include <iostream>

#include "rfc/rfc.hpp"

using namespace rfc;

namespace {

void
dump(const FoldedClos &fc, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot open " + path);
    writeDot(fc, os);
    std::cout << "wrote " << path << "  (" << fc.name() << ", "
              << fc.numSwitches() << " switches, " << fc.numWires()
              << " wires)\n";
}

} // namespace

static int
programMain(int argc, char **argv)
{
    Options opts(argc, argv,
                 {"out-dir", "topo", "radix", "levels", "leaves", "seed"});
    const std::string dir = opts.get("out-dir", ".");

    if (opts.has("topo")) {
        const std::string topo = opts.get("topo", "rfc");
        const int radix = opts.getIntAtLeast("radix", 8, 2);
        const int levels = opts.getIntAtLeast("levels", 3, 1);
        Rng rng(opts.getInt("seed", 1));
        FoldedClos fc;
        if (topo == "cft") {
            fc = buildCft(radix, levels);
        } else if (topo == "oft") {
            fc = buildOft(radix / 2 - 1, levels);
        } else if (topo == "rfc") {
            int n1 = opts.getIntAtLeast("leaves", std::max(radix, 16), 1);
            fc = buildRfcUnchecked(radix, levels, n1, rng);
        } else {
            std::cerr << "unknown --topo " << topo
                      << " (use cft|oft|rfc)\n";
            return 1;
        }
        dump(fc, dir + "/custom.dot");
        return 0;
    }

    // The paper's illustrations.
    dump(buildCft(4, 4), dir + "/figure1.dot");
    dump(buildOft(2, 2), dir + "/figure2.dot");
    Rng rng(opts.getInt("seed", 4));
    dump(buildRfcUnchecked(4, 4, 16, rng), dir + "/figure4.dot");
    return 0;
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
