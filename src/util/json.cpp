#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace rfc {

JsonWriter::JsonWriter(std::ostream &os, int indent)
    : os_(os), indent_(indent)
{}

void
JsonWriter::newline()
{
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i)
        for (int s = 0; s < indent_; ++s)
            os_ << ' ';
}

void
JsonWriter::separate()
{
    if (pending_key_) {
        pending_key_ = false;  // value follows "key": inline
        return;
    }
    if (stack_.empty())
        return;
    if (stack_.back().has_items)
        os_ << ',';
    stack_.back().has_items = true;
    newline();
}

void
JsonWriter::requireValueContext(const char *what)
{
    // A value (or nested container) is legal at the top level, inside
    // an array, or inside an object right after key().
    if (!stack_.empty() && !stack_.back().array && !pending_key_)
        throw std::logic_error(std::string(what) +
                               " inside an object requires key() first");
}

void
JsonWriter::beginObject()
{
    requireValueContext("beginObject");
    separate();
    os_ << '{';
    stack_.push_back({false, false});
}

void
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back().array)
        throw std::logic_error("endObject: not inside an object");
    if (pending_key_)
        throw std::logic_error("endObject: key() awaits its value");
    bool had = stack_.back().has_items;
    stack_.pop_back();
    if (had)
        newline();
    os_ << '}';
    if (stack_.empty())
        os_ << '\n';
}

void
JsonWriter::beginArray()
{
    requireValueContext("beginArray");
    separate();
    os_ << '[';
    stack_.push_back({true, false});
}

void
JsonWriter::endArray()
{
    if (stack_.empty() || !stack_.back().array)
        throw std::logic_error("endArray: not inside an array");
    bool had = stack_.back().has_items;
    stack_.pop_back();
    if (had)
        newline();
    os_ << ']';
    if (stack_.empty())
        os_ << '\n';
}

void
JsonWriter::key(const std::string &k)
{
    if (stack_.empty() || stack_.back().array)
        throw std::logic_error("key(): not inside an object");
    if (pending_key_)
        throw std::logic_error("key(): previous key still awaits a value");
    separate();
    os_ << '"' << escape(k) << "\": ";
    pending_key_ = true;
}

void
JsonWriter::value(const std::string &v)
{
    requireValueContext("value");
    separate();
    os_ << '"' << escape(v) << '"';
}

void
JsonWriter::value(const char *v)
{
    value(std::string(v));
}

void
JsonWriter::value(double v)
{
    requireValueContext("value");
    separate();
    os_ << formatDouble(v);
}

void
JsonWriter::value(std::int64_t v)
{
    requireValueContext("value");
    separate();
    os_ << v;
}

void
JsonWriter::value(std::uint64_t v)
{
    requireValueContext("value");
    separate();
    os_ << v;
}

void
JsonWriter::value(bool v)
{
    requireValueContext("value");
    separate();
    os_ << (v ? "true" : "false");
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
JsonWriter::formatDouble(double v)
{
    if (std::isnan(v) || std::isinf(v))
        return "null";  // JSON has no NaN/Inf
    if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
        std::fabs(v) < 1e15) {
        // Integral values print without an exponent or trailing zeros.
        std::ostringstream os;
        os << static_cast<std::int64_t>(v);
        return os.str();
    }
    // Shortest representation that round-trips: try increasing
    // precision until the parse matches.
    for (int prec = 6; prec <= 17; ++prec) {
        std::ostringstream os;
        os.precision(prec);
        os << v;
        if (std::stod(os.str()) == v)
            return os.str();
    }
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
}

} // namespace rfc
