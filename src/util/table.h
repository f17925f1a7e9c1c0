// Plain-text table rendering for the benchmark harnesses. Every bench binary
// prints the paper's reported values next to the measured ones; this keeps
// that output aligned and machine-greppable.
#pragma once

#include <string>
#include <vector>

namespace repro {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Adds a row; values are pre-formatted strings. Rows shorter than the
  // header are padded with empty cells.
  void AddRow(std::vector<std::string> cells);

  // Convenience formatters.
  static std::string Num(double v, int precision = 2);
  static std::string Int(long long v);

  // Renders with column alignment and a header rule.
  std::string ToString() const;

  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a section banner used between experiments in bench output.
void PrintBanner(const std::string& title);

}  // namespace repro
