/**
 * @file
 * Aligned-column table printing for benchmark harness output.
 *
 * Every bench binary prints the rows/series of one paper table or figure;
 * TablePrinter keeps that output uniform and also supports CSV export so
 * series can be re-plotted.
 */
#ifndef RFC_UTIL_TABLE_HPP
#define RFC_UTIL_TABLE_HPP

#include <ostream>
#include <string>
#include <vector>

namespace rfc {

class JsonWriter;

/** Collects rows of string cells and prints them column-aligned or as CSV. */
class TablePrinter
{
  public:
    /** Create a table with the given column headers. */
    explicit TablePrinter(std::vector<std::string> headers);

    /** Append a row; must have as many cells as there are headers. */
    void addRow(std::vector<std::string> cells);

    /** Format helper: fixed-point double with @p digits decimals. */
    static std::string fmt(double v, int digits = 2);

    /** Format helper: integer with thousands grouping. */
    static std::string fmtInt(long long v);

    /** Format helper: percentage with @p digits decimals ("12.3%"). */
    static std::string fmtPct(double fraction, int digits = 1);

    /** Print aligned columns to @p os. */
    void print(std::ostream &os) const;

    /** Print comma-separated values to @p os. */
    void printCsv(std::ostream &os) const;

    /**
     * Write as a JSON array of objects keyed by the headers (cells stay
     * strings; numeric parsing is the consumer's choice), as the next
     * value of @p w.
     */
    void writeJson(JsonWriter &w) const;

    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace rfc

#endif // RFC_UTIL_TABLE_HPP
