#include "util/table.hpp"

#include <cstdio>
#include <stdexcept>

#include "util/json.hpp"

namespace rfc {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        throw std::invalid_argument("TablePrinter: row width mismatch");
    rows_.push_back(std::move(cells));
}

std::string
TablePrinter::fmt(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
TablePrinter::fmtInt(long long v)
{
    std::string raw = std::to_string(v < 0 ? -v : v);
    std::string out;
    int c = 0;
    for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
        if (c && c % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++c;
    }
    if (v < 0)
        out.push_back('-');
    return {out.rbegin(), out.rend()};
}

std::string
TablePrinter::fmtPct(double fraction, int digits)
{
    return fmt(fraction * 100.0, digits) + "%";
}

void
TablePrinter::print(std::ostream &os) const
{
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c ? "  " : "");
            os << row[c];
            for (std::size_t p = row[c].size(); p < width[c]; ++p)
                os << ' ';
        }
        os << '\n';
    };

    emit(headers_);
    std::size_t total = 0;
    for (auto w : width)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    for (const auto &row : rows_)
        emit(row);
}

void
TablePrinter::printCsv(std::ostream &os) const
{
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c)
            os << (c ? "," : "") << row[c];
        os << '\n';
    };
    emit(headers_);
    for (const auto &row : rows_)
        emit(row);
}

void
TablePrinter::writeJson(JsonWriter &w) const
{
    w.beginArray();
    for (const auto &row : rows_) {
        w.beginObject();
        for (std::size_t c = 0; c < row.size(); ++c)
            w.kv(headers_[c], row[c]);
        w.endObject();
    }
    w.endArray();
}

} // namespace rfc
