#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace repro {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::Int(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  return buf;
}

std::string Table::ToString() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << "| " << row[c] << std::string(widths[c] - row[c].size() + 1, ' ');
    }
    out << "|\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << "|" << std::string(widths[c] + 2, '-');
  }
  out << "|\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void Table::Print() const { std::fputs(ToString().c_str(), stdout); }

void PrintBanner(const std::string& title) {
  std::string rule(title.size() + 8, '=');
  std::printf("\n%s\n=== %s ===\n%s\n", rule.c_str(), title.c_str(),
              rule.c_str());
}

}  // namespace repro
