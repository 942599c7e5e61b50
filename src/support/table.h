/**
 * @file
 * Plain-text table renderer used by the experiment drivers to print
 * paper-style tables (rows of labelled values, optionally with a
 * "paper" column next to the "measured" column).
 */
#pragma once

#include <string>
#include <vector>

namespace mips::support {

/**
 * A simple column-aligned text table.
 *
 * Usage:
 * @code
 *   TextTable t("Table 1: Constant distribution");
 *   t.setHeader({"Absolute value", "Paper", "Measured"});
 *   t.addRow({"0", "24.8%", "23.1%"});
 *   std::cout << t.render();
 * @endcode
 */
class TextTable
{
  public:
    explicit TextTable(std::string title = "") : title_(std::move(title)) {}

    /** Set the (optional) header row. */
    void setHeader(std::vector<std::string> header);

    /** Append a data row; short rows are padded with empty cells. */
    void addRow(std::vector<std::string> row);

    /** Append a horizontal separator line. */
    void addSeparator();

    /** Render the whole table, trailing newline included. */
    std::string render() const;

    /** Number of data rows added so far (separators excluded). */
    size_t rowCount() const { return numDataRows_; }

    /** Format a double as a percentage string like "24.8%". */
    static std::string pct(double fraction, int decimals = 1);

    /** Format a double with fixed decimals. */
    static std::string num(double value, int decimals = 2);

  private:
    struct Row
    {
        bool separator = false;
        std::vector<std::string> cells;
    };

    std::string title_;
    std::vector<std::string> header_;
    std::vector<Row> rows_;
    size_t numDataRows_ = 0;
};

} // namespace mips::support
