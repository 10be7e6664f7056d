#include "util/options.hpp"

#include <algorithm>
#include <cctype>
#include <iostream>
#include <limits>
#include <stdexcept>

namespace rfc {

namespace {

/**
 * @p parse (a std::sto* call) applied to all of @p text; throws
 * std::invalid_argument naming @p what and the text when any of it,
 * leading whitespace included, is not part of the number or the
 * number is out of range.
 */
template <typename Parse>
auto
parseWhole(const std::string &what, const std::string &text,
           const char *kind, Parse parse)
{
    if (!text.empty() &&
        !std::isspace(static_cast<unsigned char>(text[0]))) {
        try {
            std::size_t used = 0;
            auto value = parse(text, &used);
            if (used == text.size())
                return value;
        } catch (const std::logic_error &) {
            // invalid_argument or out_of_range: reported below
        }
    }
    throw std::invalid_argument(what + ": expected " + kind + ", got '" +
                                text + "'");
}

std::int64_t
parseInteger(const std::string &what, const std::string &text)
{
    return parseWhole(what, text, "an integer",
                      [](const std::string &s, std::size_t *used) {
                          return std::stoll(s, used);
                      });
}

double
parseNumber(const std::string &what, const std::string &text)
{
    return parseWhole(what, text, "a number",
                      [](const std::string &s, std::size_t *used) {
                          return std::stod(s, used);
                      });
}

} // namespace

Options::Options(int argc, const char *const *argv,
                 const std::vector<std::string> &flags)
    : flags_(flags.begin(), flags.end())
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--help") {
            std::string usage = std::string("usage: ") + argv[0] +
                                " [--flag [value]]...\nflags:\n";
            for (const auto &f : flags_)
                usage += "  --" + f + "\n";
            throw HelpRequested(usage);
        }
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            throw std::invalid_argument("unexpected argument: " + arg);
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        std::string name = arg.substr(0, eq);
        if (!declares(name)) {
            std::string valid;
            for (const auto &f : flags_)
                valid += (valid.empty() ? "--" : ", --") + f;
            throw std::invalid_argument("unknown flag --" + name +
                                        " (valid: " + valid + ")");
        }
        if (eq != std::string::npos)
            values_[name] = arg.substr(eq + 1);
        else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0)
            values_[name] = argv[++i];
        else
            values_[name] = "";  // bare flag
    }
}

const std::string *
Options::lookup(const std::string &name) const
{
    if (!declares(name))
        throw std::logic_error("option --" + name +
                               " is read but was not declared");
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
}

bool
Options::has(const std::string &name) const
{
    return lookup(name) != nullptr;
}

std::string
Options::get(const std::string &name, const std::string &def) const
{
    const std::string *v = lookup(name);
    return v ? *v : def;
}

std::int64_t
Options::getInt(const std::string &name, std::int64_t def, std::int64_t lo,
                std::int64_t hi) const
{
    const std::string *text = lookup(name);
    const std::int64_t v =
        text ? parseInteger("option --" + name, *text) : def;
    if (v < lo || v > hi)
        throw std::invalid_argument(
            "option --" + name + ": " + std::to_string(v) +
            " is out of range [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "]");
    return v;
}

int
Options::getIntAtLeast(const std::string &name, int def, int lo) const
{
    return static_cast<int>(
        getInt(name, def, lo, std::numeric_limits<int>::max()));
}

double
Options::getDouble(const std::string &name, double def) const
{
    const std::string *text = lookup(name);
    return text ? parseNumber("option --" + name, *text) : def;
}

std::vector<std::string>
Options::getList(const std::string &name, const std::string &def,
                 const std::vector<std::string> &valid) const
{
    const std::string text = get(name, def);
    std::vector<std::string> out;
    for (std::size_t begin = 0;; ) {
        const std::size_t comma = std::min(text.find(',', begin),
                                           text.size());
        std::string item = text.substr(begin, comma - begin);
        if (item.empty())
            throw std::invalid_argument("option --" + name +
                                        ": empty item in '" + text + "'");
        if (!valid.empty() &&
            std::find(valid.begin(), valid.end(), item) == valid.end()) {
            std::string names;
            for (const auto &v : valid)
                names += (names.empty() ? "" : ", ") + v;
            throw std::invalid_argument("option --" + name + ": unknown '" +
                                        item + "' (valid: " + names + ")");
        }
        out.push_back(std::move(item));
        if (comma == text.size())
            return out;
        begin = comma + 1;
    }
}

std::vector<double>
Options::getDoubleList(const std::string &name,
                       const std::string &def) const
{
    std::vector<double> out;
    for (const auto &item : getList(name, def))
        out.push_back(parseNumber("option --" + name, item));
    return out;
}

bool
Options::getBool(const std::string &name, bool def) const
{
    const std::string *v = lookup(name);
    if (!v)
        return def;
    if (v->empty() || *v == "1" || *v == "true" || *v == "yes")
        return true;
    if (*v == "0" || *v == "false" || *v == "no")
        return false;
    throw std::invalid_argument("option --" + name +
                                ": expected 1/0, true/false or yes/no, "
                                "got '" + *v + "'");
}

bool
Options::declares(const std::string &name) const
{
    return flags_.count(name) != 0;
}

int
Options::jobs() const
{
    // 0 = auto (hardware concurrency).
    return static_cast<int>(getInt("jobs", 0,
                                   std::numeric_limits<int>::min(),
                                   std::numeric_limits<int>::max()));
}

int
runMain(int argc, char **argv, int (*body)(int, char **))
{
    try {
        return body(argc, argv);
    } catch (const HelpRequested &help) {
        std::cout << help.what();
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}

} // namespace rfc
