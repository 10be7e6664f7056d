#include "clos/serialize.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace rfc {

void
saveTopology(const FoldedClos &fc, std::ostream &os)
{
    os << "rfc-topology 1\n";
    os << "name " << fc.name() << "\n";
    os << "radix " << fc.radix() << "\n";
    os << "terminals-per-leaf " << fc.terminalsPerLeaf() << "\n";
    os << "levels " << fc.levels();
    for (int lv = 1; lv <= fc.levels(); ++lv)
        os << " " << fc.switchesAtLevel(lv);
    os << "\n";
    auto links = fc.links();
    os << "links " << links.size() << "\n";
    for (const auto &l : links)
        os << l.lower << " " << l.upper << "\n";
    os << "end\n";
}

namespace {

/**
 * The lines of a topology file with '#' comments stripped, numbered
 * from 1, so that every parse error can name the line it is about.
 */
class LineReader
{
  public:
    explicit LineReader(std::istream &is) : is_(is) {}

    /** The next non-empty line after comment stripping. */
    const std::string &
    next()
    {
        while (std::getline(is_, line_)) {
            ++number_;
            auto hash = line_.find('#');
            if (hash != std::string::npos)
                line_.resize(hash);
            auto last = line_.find_last_not_of(" \t\r");
            if (last == std::string::npos)
                continue;
            line_.resize(last + 1);
            return line_;
        }
        throw std::runtime_error(
            "loadTopology: unexpected end of input after line " +
            std::to_string(number_));
    }

    /** A parse error about the current line. */
    std::runtime_error
    error(const std::string &what) const
    {
        return std::runtime_error("loadTopology: line " +
                                  std::to_string(number_) + " '" + line_ +
                                  "': " + what);
    }

  private:
    std::istream &is_;
    std::string line_;
    long long number_ = 0;
};

/** The next line, which must start with @p key; returns the rest. */
std::istringstream
expect(LineReader &in, const std::string &key)
{
    std::istringstream ss(in.next());
    std::string head;
    ss >> head;
    if (head != key)
        throw in.error("expected '" + key + "'");
    return ss;
}

/**
 * The next token of @p ss as a whole number in [@p lo, @p hi]; a
 * missing token, trailing characters ("2.5", "4x") and out-of-range
 * values are errors naming @p what and the line.
 */
long long
readInt(std::istringstream &ss, const LineReader &in, const char *what,
        long long lo, long long hi)
{
    std::string tok;
    if (!(ss >> tok))
        throw in.error(std::string("missing ") + what);
    std::size_t used = 0;
    long long v = 0;
    try {
        v = std::stoll(tok, &used);
    } catch (const std::logic_error &) {
        used = 0;
    }
    if (used != tok.size() || used == 0)
        throw in.error(std::string(what) + " '" + tok +
                       "' is not a whole number");
    if (v < lo || v > hi)
        throw in.error(std::string(what) + " " + tok + " is outside [" +
                       std::to_string(lo) + ", " + std::to_string(hi) +
                       "]");
    return v;
}

/** Reject anything left on the line after its fields. */
void
expectEnd(std::istringstream &ss, const LineReader &in)
{
    std::string extra;
    if (ss >> extra)
        throw in.error("unexpected trailing '" + extra + "'");
}

} // namespace

FoldedClos
loadTopology(std::istream &is)
{
    constexpr long long kIntMax = std::numeric_limits<int>::max();
    LineReader in(is);
    {
        auto ss = expect(in, "rfc-topology");
        if (readInt(ss, in, "version", 0, kIntMax) != 1)
            throw in.error("unsupported version");
        expectEnd(ss, in);
    }
    std::string name;
    {
        auto ss = expect(in, "name");
        std::getline(ss, name);
        auto nonspace = name.find_first_not_of(' ');
        if (nonspace != std::string::npos)
            name = name.substr(nonspace);
    }
    int radix = 0, tpl = 0;
    {
        auto ss = expect(in, "radix");
        radix = static_cast<int>(readInt(ss, in, "radix", 1, kIntMax));
        expectEnd(ss, in);
    }
    {
        auto ss = expect(in, "terminals-per-leaf");
        tpl = static_cast<int>(
            readInt(ss, in, "terminals-per-leaf", 1, kIntMax));
        expectEnd(ss, in);
    }
    auto ss = expect(in, "levels");
    const long long levels = readInt(ss, in, "level count", 1, kIntMax);
    std::vector<int> counts;
    for (long long i = 0; i < levels; ++i)
        counts.push_back(static_cast<int>(
            readInt(ss, in, "switches per level", 1, kIntMax)));
    expectEnd(ss, in);
    // FoldedClos rejects level counts whose sum overflows int.
    FoldedClos fc = [&] {
        try {
            return FoldedClos(counts, radix, tpl, name);
        } catch (const std::invalid_argument &e) {
            throw in.error(e.what());
        }
    }();

    long long nlinks = 0;
    {
        auto lks = expect(in, "links");
        nlinks = readInt(lks, in, "link count", 0,
                         std::numeric_limits<long long>::max());
        expectEnd(lks, in);
    }
    const long long top = fc.numSwitches() - 1;
    for (long long i = 0; i < nlinks; ++i) {
        std::istringstream link(in.next());
        const auto lo = static_cast<int>(readInt(link, in, "switch", 0, top));
        const auto hi = static_cast<int>(readInt(link, in, "switch", 0, top));
        expectEnd(link, in);
        fc.addLink(lo, hi);
    }
    {
        auto end = expect(in, "end");
        expectEnd(end, in);
    }
    if (!fc.validate())
        throw std::runtime_error("loadTopology: inconsistent topology");
    return fc;
}

void
writeDot(const FoldedClos &fc, std::ostream &os)
{
    os << "graph \"" << fc.name() << "\" {\n";
    os << "  rankdir=BT;\n";
    for (int lv = 1; lv <= fc.levels(); ++lv) {
        os << "  { rank=same;";
        int lo = fc.levelOffset(lv);
        for (int s = lo; s < lo + fc.switchesAtLevel(lv); ++s)
            os << " s" << s << ";";
        os << " }\n";
    }
    for (int s = 0; s < fc.numSwitches(); ++s) {
        os << "  s" << s << " [label=\"L" << fc.levelOf(s) << ":" << s
           << "\" shape=box];\n";
    }
    for (const auto &l : fc.links())
        os << "  s" << l.lower << " -- s" << l.upper << ";\n";
    os << "}\n";
}

} // namespace rfc
