#include "util/options.hpp"

#include <cctype>
#include <cstdlib>
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

} // namespace

Options::Options(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            throw std::invalid_argument("unexpected argument: " + arg);
        arg = arg.substr(2);
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            values_[arg] = argv[++i];
        } else {
            values_[arg] = "";  // bare flag
        }
    }
}

bool
Options::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
Options::get(const std::string &name, const std::string &def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

std::int64_t
Options::getInt(const std::string &name, std::int64_t def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    return parseInteger("option --" + name, it->second);
}

double
Options::getDouble(const std::string &name, double def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    return parseWhole("option --" + name, it->second, "a number",
                      [](const std::string &s, std::size_t *used) {
                          return std::stod(s, used);
                      });
}

bool
Options::getBool(const std::string &name, bool def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    return v.empty() || v == "1" || v == "true" || v == "yes";
}

bool
Options::fullScale() const
{
    if (getBool("full", false))
        return true;
    const char *env = std::getenv("RFC_FULL");
    return env && std::string(env) == "1";
}

int
Options::jobs() const
{
    std::string what = "option --jobs";
    std::int64_t n = 0;  // 0 = auto (hardware concurrency)
    if (has("jobs")) {
        n = getInt("jobs", 0);
    } else if (const char *env = std::getenv("RFC_JOBS")) {
        what = "environment variable RFC_JOBS";
        n = parseInteger(what, env);
    }
    if (n < std::numeric_limits<int>::min() ||
        n > std::numeric_limits<int>::max())
        throw std::invalid_argument(what + ": " + std::to_string(n) +
                                    " is out of range");
    return static_cast<int>(n);
}

} // namespace rfc
