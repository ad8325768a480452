/**
 * @file
 * Plain-text table and CSV writers used by the bench harnesses to print
 * the rows/series each paper table or figure reports.
 */

#ifndef PLIANT_UTIL_TABLE_HH
#define PLIANT_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace pliant {
namespace util {

/**
 * Column-aligned text table. Collect rows of strings, then render.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append a row; must have the same arity as the header. */
    void addRow(std::vector<std::string> row);

    /** Render with aligned columns to the stream. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> head;
    std::vector<std::vector<std::string>> rows;
};

/**
 * Minimal CSV writer (quotes fields containing separators).
 */
class CsvWriter
{
  public:
    explicit CsvWriter(std::ostream &os) : out(os) {}

    void writeRow(const std::vector<std::string> &fields);

  private:
    std::ostream &out;
};

/** Format a double with fixed precision. */
std::string fmt(double value, int precision = 2);

/** Format a double as a percentage string, e.g. "2.1%". */
std::string fmtPct(double fraction, int precision = 1);

} // namespace util
} // namespace pliant

#endif // PLIANT_UTIL_TABLE_HH
