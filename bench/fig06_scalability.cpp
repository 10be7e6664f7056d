/**
 * @file
 * Figure 6: scalability - compute nodes vs switch radix, levels 2-4.
 *
 * One series per (topology, level); terminals on a log scale in the
 * paper.  OFT rows appear only at radices where q = R/2 - 1 is a prime
 * power, exactly as the strict definition demands.
 */
#include <iostream>

#include "analysis/scalability.hpp"
#include "bench_common.hpp"
#include "clos/galois.hpp"
#include "clos/oft.hpp"

using namespace rfc;

static int
programMain(int argc, char **argv)
{
    Bench b(argc, argv, "fig06_scalability", 1, {});
    b.banner("Figure 6: scalability (terminals vs radix)");

    for (int levels : {2, 3, 4}) {
        TablePrinter t({"radix", "T(CFT)", "T(RFC)", "T(RRN)", "T(OFT)"});
        for (int radix = 8; radix <= 64; radix += 4) {
            int q = oftOrderFromRadix(radix);
            std::string oft = "-";
            if (isPrimePower(q) && levels <= 3)
                oft = TablePrinter::fmtInt(oftTerminals(q, levels));
            t.addRow({std::to_string(radix),
                      TablePrinter::fmtInt(cftTerminals(radix, levels)),
                      TablePrinter::fmtInt(rfcMaxTerminals(radix, levels)),
                      TablePrinter::fmtInt(
                          rrnMaxTerminals(radix, 2 * (levels - 1))),
                      oft});
        }
        b.emit("levels = " + std::to_string(levels) + " (diameter " +
                   std::to_string(2 * (levels - 1)) + ")",
               t);
    }

    // Paper's headline orderings: OFT > RFC ~ RRN > CFT.  The RFC
    // advantage needs (R/2)^(2l-2) / ln N1 > 2 (R/2)^l, which fails
    // only for tiny 2-level radices (R <= 12) where the log term
    // dominates - hence the R >= 16 range.
    TablePrinter s({"claim", "holds"});
    bool rfc_beats_cft = true, oft_beats_rfc = true;
    for (int radix = 16; radix <= 64; radix += 4) {
        for (int levels : {2, 3}) {
            rfc_beats_cft &= rfcMaxTerminals(radix, levels) >
                             cftTerminals(radix, levels);
            int q = oftOrderFromRadix(radix);
            if (isPrimePower(q))
                oft_beats_rfc &= oftTerminals(q, levels) >
                                 rfcMaxTerminals(radix, levels);
        }
    }
    s.addRow({"RFC scales beyond CFT at every (R>=16, l)",
              rfc_beats_cft ? "yes" : "NO"});
    s.addRow({"OFT scales beyond RFC at every (R>=16, l<=3)",
              oft_beats_rfc ? "yes" : "NO"});
    b.emit("headline ordering checks", s);
    return b.finish();
}

int
main(int argc, char **argv)
{
    return runMain(argc, argv, programMain);
}
