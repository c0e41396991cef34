#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace treesched {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  checkThat(!header_.empty(), "Table header non-empty", __FILE__, __LINE__);
}

void Table::addRow(std::vector<std::string> cells) {
  checkThat(cells.size() == header_.size(), "Table row width matches header",
            __FILE__, __LINE__);
  rows_.push_back(std::move(cells));
}

Table::RowBuilder& Table::RowBuilder::cell(const std::string& v) {
  cells_.push_back(v);
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(const char* v) {
  cells_.emplace_back(v);
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(long long v) {
  cells_.push_back(std::to_string(v));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(unsigned long long v) {
  cells_.push_back(std::to_string(v));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(long v) {
  cells_.push_back(std::to_string(v));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(unsigned long v) {
  cells_.push_back(std::to_string(v));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(int v) {
  cells_.push_back(std::to_string(v));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(unsigned int v) {
  cells_.push_back(std::to_string(v));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(double v, int precision) {
  cells_.push_back(formatDouble(v, precision));
  return *this;
}

Table::RowBuilder::~RowBuilder() { table_.addRow(std::move(cells_)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto emitRow = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << std::left << std::setw(static_cast<int>(width[c])) << row[c]
         << " |";
    }
    os << '\n';
  };
  emitRow(header_);
  os << "|";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << "|";
  }
  os << '\n';
  for (const auto& row : rows_) {
    emitRow(row);
  }
}

std::string Table::toString() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

std::string formatDouble(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

}  // namespace treesched
