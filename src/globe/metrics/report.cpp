#include "globe/metrics/report.hpp"

#include <cstdio>

namespace globe::metrics {

std::string TablePrinter::render() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    widths[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      if (row[i].size() > widths[i]) widths[i] = row[i].size();
    }
  }

  auto pad = [](const std::string& s, std::size_t w) {
    std::string out = s;
    out.resize(w, ' ');
    return out;
  };

  std::string out;
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    out += pad(headers_[i], widths[i]);
    out += (i + 1 < headers_.size()) ? "  " : "";
  }
  out += "\n";
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    out += std::string(widths[i], '-');
    out += (i + 1 < headers_.size()) ? "  " : "";
  }
  out += "\n";
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out += pad(row[i], i < widths.size() ? widths[i] : row[i].size());
      out += (i + 1 < row.size()) ? "  " : "";
    }
    out += "\n";
  }
  return out;
}

std::string TablePrinter::num(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string TablePrinter::num(std::uint64_t v) { return std::to_string(v); }

}  // namespace globe::metrics
