// ASCII table rendering for benchmark output.
//
// Each bench binary regenerates one table or figure of the paper; this
// printer produces the aligned rows they emit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace globe::metrics {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Renders the table with padded columns and a header separator.
  [[nodiscard]] std::string render() const;

  /// Convenience for numeric cells.
  static std::string num(double v, int decimals = 2);
  static std::string num(std::uint64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace globe::metrics
