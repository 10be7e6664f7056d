/**
 * @file
 * Section 5 cost-comparison examples: the 11K / 100K / 200K scenarios.
 *
 * Reprints the paper's switch/wire counts and savings percentages:
 *   - 11K:  3-level R=36 CFT vs equal-resources RFC and a radix-20 RFC
 *   - 100K: 3-level RFC vs (fully equipped) 4-level CFT
 *   - 200K: maximum 3-level RFC vs 4-level CFT (31% / 36% savings)
 */
#include <iostream>

#include "analysis/cost.hpp"
#include "analysis/scalability.hpp"
#include "bench_common.hpp"
#include "clos/rfc.hpp"

using namespace rfc;

namespace {

void
addRow(TablePrinter &t, const std::string &name, const CostPoint &c)
{
    t.addRow({name, TablePrinter::fmtInt(c.terminals),
              std::to_string(c.levels), TablePrinter::fmtInt(c.switches),
              TablePrinter::fmtInt(c.wires),
              TablePrinter::fmtInt(c.ports)});
}

} // namespace

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "tab_section5_cost", 1, {});
    b.banner("Section 5: cost comparison scenarios (R = 36)");

    TablePrinter t({"configuration", "terminals", "levels", "switches",
                    "wires", "ports"});
    addRow(t, "11K  CFT(36,3)", cftCost(36, 3));
    addRow(t, "11K  RFC(36,3) equal resources", rfcCost(36, 3, 648));
    addRow(t, "11K  RFC(20,3) reduced radix", rfcCost(20, 3, 1166));
    addRow(t, "100K RFC(36,3)", rfcCost(36, 3, 5556));
    addRow(t, "100K CFT(36,4) fully equipped", cftCost(36, 4));
    addRow(t, "200K RFC(36,3) max expansion", rfcCost(36, 3, 11254));
    addRow(t, "200K CFT(36,4)", cftCost(36, 4));
    b.emit("scenario costs", t);

    auto cft4 = cftCost(36, 4);
    auto rfc200 = rfcCost(36, 3, 11254);
    TablePrinter s({"comparison", "paper", "measured"});
    s.addRow({"200K switch saving", "31%",
              TablePrinter::fmtPct(1.0 - static_cast<double>(
                  rfc200.switches) / cft4.switches, 1)});
    s.addRow({"200K wire saving", "36%",
              TablePrinter::fmtPct(1.0 - static_cast<double>(
                  rfc200.wires) / cft4.wires, 1)});
    s.addRow({"RFC max leaves (Thm 4.2)", "11,254",
              TablePrinter::fmtInt(rfcMaxLeaves(36, 3))});
    s.addRow({"RFC max terminals", "202,572",
              TablePrinter::fmtInt(rfcMaxTerminals(36, 3))});
    auto rfc100 = rfcCost(36, 3, 5556);
    s.addRow({"100K RFC switches", "13,890",
              TablePrinter::fmtInt(rfc100.switches)});
    s.addRow({"100K RFC wires", "200,016",
              TablePrinter::fmtInt(rfc100.wires)});
    s.addRow({"100K CFT(4) switches", "40,824",
              TablePrinter::fmtInt(cft4.switches)});
    s.addRow({"100K CFT(4) wires", "629,856",
              TablePrinter::fmtInt(cft4.wires)});
    b.emit("paper vs measured", s);
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
