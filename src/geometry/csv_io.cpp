#include "geometry/csv_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/status.hpp"

namespace mpte {

PointSet read_csv_points(std::istream& in) {
  PointSet points;
  std::string line;
  std::size_t line_number = 0;
  std::vector<double> row;
  while (std::getline(in, line)) {
    ++line_number;
    // Skip blank lines (including trailing newline artifacts).
    bool blank = true;
    for (const char c : line) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        blank = false;
        break;
      }
    }
    if (blank) continue;

    row.clear();
    const char* cursor = line.data();
    const char* end = line.data() + line.size();
    while (cursor < end) {
      while (cursor < end && (*cursor == ' ' || *cursor == '\t')) ++cursor;
      double value = 0.0;
      const auto [next, ec] = std::from_chars(cursor, end, value);
      if (ec != std::errc{}) {
        throw MpteError("read_csv_points: bad number at line " +
                        std::to_string(line_number));
      }
      // from_chars accepts nan and inf; no pipeline can embed them.
      if (!std::isfinite(value)) {
        throw MpteError("read_csv_points: non-finite number at line " +
                        std::to_string(line_number));
      }
      row.push_back(value);
      cursor = next;
      while (cursor < end && (*cursor == ' ' || *cursor == '\t')) ++cursor;
      if (cursor < end) {
        if (*cursor != ',') {
          throw MpteError("read_csv_points: expected ',' at line " +
                          std::to_string(line_number));
        }
        ++cursor;
      }
    }
    if (!points.empty() && row.size() != points.dim()) {
      throw MpteError("read_csv_points: ragged row at line " +
                      std::to_string(line_number));
    }
    points.push_back(row);
  }
  return points;
}

PointSet read_csv_points_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw MpteError("read_csv_points_file: cannot open " + path);
  return read_csv_points(in);
}

void write_csv_points(const PointSet& points, std::ostream& out) {
  out << std::setprecision(17);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto p = points[i];
    for (std::size_t j = 0; j < points.dim(); ++j) {
      if (j > 0) out << ',';
      out << p[j];
    }
    out << '\n';
  }
}

void write_csv_points_file(const PointSet& points, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw MpteError("write_csv_points_file: cannot open " + path);
  write_csv_points(points, out);
  if (!out) throw MpteError("write_csv_points_file: write failed: " + path);
}

}  // namespace mpte
