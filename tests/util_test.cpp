// Unit tests for src/util: RNG, statistics, table/CSV formatting, errors.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <vector>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace ssamr {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const real_t x = r.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const real_t x = r.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(11);
  std::vector<real_t> xs(20000);
  for (real_t& x : xs) x = r.uniform();
  EXPECT_NEAR(mean_of(xs), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(17);
  std::vector<real_t> xs(50000);
  for (real_t& x : xs) x = r.normal(2.0, 3.0);
  const real_t mean = mean_of(xs);
  real_t ss = 0;
  for (real_t x : xs) ss += (x - mean) * (x - mean);
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(ss / static_cast<real_t>(xs.size() - 1)), 3.0, 0.05);
}

TEST(Stats, MeanOfVector) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"a", "long_header"});
  t.add_row({"1", "2"});
  const std::string s = t.str();
  EXPECT_NE(s.find("a  long_header"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), Error);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.18), "18.0%");
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, UnopenablePathThrowsNamingIt) {
  // The writer must refuse the path, not accept and drop every row.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ssamr-csv-no-such-dir";
  ASSERT_FALSE(std::filesystem::exists(dir));
  const std::string path = (dir / "x.csv").string();
  try {
    CsvWriter w(path, {"a", "b"});
    FAIL() << "expected ssamr::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(Error, RequireThrowsWithMessage) {
  try {
    SSAMR_REQUIRE(false, "custom detail");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail"),
              std::string::npos);
  }
}

TEST(Logging, RespectsLevel) {
  std::ostringstream sink;
  Log::set_sink(&sink);
  Log::set_level(LogLevel::Warn);
  SSAMR_INFO << "hidden";
  SSAMR_WARN << "visible";
  Log::set_sink(nullptr);
  EXPECT_EQ(sink.str().find("hidden"), std::string::npos);
  EXPECT_NE(sink.str().find("visible"), std::string::npos);
}

}  // namespace
}  // namespace ssamr
