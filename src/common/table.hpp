// Text-table and CSV emission for bench output. Every bench prints both a
// human-readable aligned table (the "figure") and machine-readable CSV rows
// so results can be replotted.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace parva {

/// Column-aligned text table builder.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Adds one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: accepts doubles and formats them with `precision`.
  void add_row_numeric(const std::string& label, const std::vector<double>& values,
                       int precision = 2);

  std::size_t rows() const { return rows_.size(); }

  /// Renders with column alignment and a separator under the header.
  std::string render() const;

  /// Renders the same data as CSV.
  std::string to_csv() const;

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace parva
