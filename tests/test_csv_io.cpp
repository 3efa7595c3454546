#include "geometry/csv_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/status.hpp"
#include "geometry/generators.hpp"

namespace mpte {
namespace {

TEST(CsvIo, ParsesSimpleMatrix) {
  std::istringstream in("1,2,3\n4,5,6\n");
  const PointSet points = read_csv_points(in);
  ASSERT_EQ(points.size(), 2u);
  ASSERT_EQ(points.dim(), 3u);
  EXPECT_EQ(points.coord(0, 0), 1.0);
  EXPECT_EQ(points.coord(1, 2), 6.0);
}

TEST(CsvIo, ToleratesSpacesAndBlankLines) {
  std::istringstream in("1.5 , -2\n\n   \n3 ,4.25\n");
  const PointSet points = read_csv_points(in);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points.coord(0, 1), -2.0);
  EXPECT_EQ(points.coord(1, 1), 4.25);
}

TEST(CsvIo, ParsesScientificNotation) {
  std::istringstream in("1e3,-2.5e-2\n");
  const PointSet points = read_csv_points(in);
  EXPECT_EQ(points.coord(0, 0), 1000.0);
  EXPECT_EQ(points.coord(0, 1), -0.025);
}

TEST(CsvIo, RejectsRaggedRows) {
  std::istringstream in("1,2\n3,4,5\n");
  EXPECT_THROW((void)read_csv_points(in), MpteError);
}

TEST(CsvIo, RejectsGarbage) {
  std::istringstream bad_number("1,abc\n");
  EXPECT_THROW((void)read_csv_points(bad_number), MpteError);
  std::istringstream bad_separator("1;2\n");
  EXPECT_THROW((void)read_csv_points(bad_separator), MpteError);
}

TEST(CsvIo, RejectsNonFiniteNumbersNamingTheLine) {
  // from_chars parses these; no pipeline can embed them.
  for (const char* field : {"nan", "inf", "-inf"}) {
    std::istringstream in(std::string("1,2\n3,") + field + "\n");
    try {
      (void)read_csv_points(in);
      ADD_FAILURE() << field << " was accepted";
    } catch (const MpteError& error) {
      EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
          << error.what();
    }
  }
}

TEST(CsvIo, EmptyInputGivesEmptySet) {
  std::istringstream in("");
  EXPECT_TRUE(read_csv_points(in).empty());
}

TEST(CsvIo, StreamRoundTripExact) {
  const PointSet points = generate_uniform_cube(50, 5, 100.0, 3);
  std::stringstream buffer;
  write_csv_points(points, buffer);
  const PointSet restored = read_csv_points(buffer);
  ASSERT_EQ(restored.size(), points.size());
  ASSERT_EQ(restored.dim(), points.dim());
  EXPECT_EQ(restored.raw(), points.raw());  // 17-digit precision
}

TEST(CsvIo, FileRoundTrip) {
  const PointSet points = generate_gaussian_clusters(30, 4, 3, 10.0, 1.0, 5);
  const std::string path = "/tmp/mpte_csv_io_test.csv";
  write_csv_points_file(points, path);
  const PointSet restored = read_csv_points_file(path);
  EXPECT_EQ(restored.raw(), points.raw());
  std::remove(path.c_str());
}

TEST(CsvIo, MissingFileThrows) {
  EXPECT_THROW((void)read_csv_points_file("/no/such/file.csv"), MpteError);
}

}  // namespace
}  // namespace mpte
