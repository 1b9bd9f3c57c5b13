#include "common/table.hpp"

#include <algorithm>
#include <ostream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace parva {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  PARVA_REQUIRE(!header_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> row) {
  PARVA_REQUIRE(row.size() == header_.size(), "row arity mismatch");
  rows_.push_back(std::move(row));
}

void TextTable::add_row_numeric(const std::string& label, const std::vector<double>& values,
                                int precision) {
  std::vector<std::string> row;
  row.reserve(values.size() + 1);
  row.push_back(label);
  for (double v : values) row.push_back(format_double(v, precision));
  add_row(std::move(row));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row, std::string& out) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      if (c + 1 != row.size()) {
        out.append(widths[c] - row[c].size() + 2, ' ');
      }
    }
    out += '\n';
  };
  std::string out;
  emit_row(header_, out);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out.append(total > 2 ? total - 2 : total, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row, out);
  return out;
}

std::string TextTable::to_csv() const {
  auto escape = [](const std::string& field) {
    if (field.find_first_of(",\"\n") == std::string::npos) return field;
    std::string quoted = "\"";
    for (char ch : field) {
      if (ch == '"') quoted += '"';
      quoted += ch;
    }
    quoted += '"';
    return quoted;
  };
  std::string out;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c != 0) out += ',';
    out += escape(header_[c]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out += ',';
      out += escape(row[c]);
    }
    out += '\n';
  }
  return out;
}

void TextTable::print(std::ostream& os) const { os << render(); }

}  // namespace parva
