// ASCII table printer used by every benchmark harness.
//
// Benches reproduce the paper's quantitative claims as tables (DESIGN.md §4)
// and must be readable both on a terminal and in EXPERIMENTS.md, so the
// printer emits GitHub-flavoured markdown pipes with aligned columns.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace treesched {

/// Column-aligned table builder.
///
/// Usage:
///   Table t({"n", "depth", "bound"});
///   t.addRow({"1024", "20", "20"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends one row; must have exactly as many cells as the header.
  void addRow(std::vector<std::string> cells);

  /// Convenience: formats heterogeneous cells (int/double/string) in order.
  class RowBuilder {
   public:
    explicit RowBuilder(Table& table) : table_(table) {}
    RowBuilder& cell(const std::string& v);
    RowBuilder& cell(const char* v);
    RowBuilder& cell(long long v);
    RowBuilder& cell(unsigned long long v);
    RowBuilder& cell(long v);
    RowBuilder& cell(unsigned long v);
    RowBuilder& cell(int v);
    RowBuilder& cell(unsigned int v);
    RowBuilder& cell(double v, int precision = 3);
    ~RowBuilder();

    RowBuilder(const RowBuilder&) = delete;
    RowBuilder& operator=(const RowBuilder&) = delete;

   private:
    Table& table_;
    std::vector<std::string> cells_;
  };

  /// Starts a row; it is committed when the returned builder is destroyed.
  RowBuilder row() { return RowBuilder(*this); }

  /// Writes the table as aligned markdown (| a | b |) to `os`.
  void print(std::ostream& os) const;

  /// Renders to a string (used by tests).
  std::string toString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision — shared helper for benches.
std::string formatDouble(double v, int precision = 3);

}  // namespace treesched
