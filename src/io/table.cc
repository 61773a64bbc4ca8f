#include "io/table.h"

#include <algorithm>

namespace homets::io {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : headers_[0];
      os << "  " << cell;
      for (size_t pad = cell.size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  os << "  ";
  for (size_t i = 2; i < total; ++i) os << '-';
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string AsciiBar(double value, double max_value, size_t width) {
  if (max_value <= 0.0 || value <= 0.0 || width == 0) return "";
  size_t len = static_cast<size_t>(value / max_value * static_cast<double>(width) + 0.5);
  len = std::min(len, width);
  if (len == 0) len = 1;  // visible tick for any positive value
  return std::string(len, '#');
}

void PrintSection(std::ostream& os, const std::string& title) {
  os << "\n== " << title << " ==\n";
}

}  // namespace homets::io
