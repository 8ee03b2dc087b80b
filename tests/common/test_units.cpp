#include "common/units.hpp"

#include <gtest/gtest.h>

namespace dh {
namespace {

TEST(Units, QuantityArithmetic) {
  const Volts a{1.5};
  const Volts b{0.5};
  EXPECT_DOUBLE_EQ((a + b).value(), 2.0);
  EXPECT_DOUBLE_EQ((a - b).value(), 1.0);
  EXPECT_DOUBLE_EQ((-a).value(), -1.5);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 3.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 3.0);
  EXPECT_DOUBLE_EQ((a / 3.0).value(), 0.5);
  EXPECT_DOUBLE_EQ(a / b, 3.0);  // dimensionless ratio
}

TEST(Units, CompoundAssignment) {
  Volts v{1.0};
  v += Volts{0.5};
  EXPECT_DOUBLE_EQ(v.value(), 1.5);
  v -= Volts{1.0};
  EXPECT_DOUBLE_EQ(v.value(), 0.5);
  v *= 4.0;
  EXPECT_DOUBLE_EQ(v.value(), 2.0);
  v /= 2.0;
  EXPECT_DOUBLE_EQ(v.value(), 1.0);
}

TEST(Units, Comparisons) {
  EXPECT_LT(Volts{0.5}, Volts{1.0});
  EXPECT_GE(Seconds{3.0}, Seconds{3.0});
  EXPECT_EQ(Kelvin{300.0}, Kelvin{300.0});
}

TEST(Units, TemperatureConversions) {
  EXPECT_DOUBLE_EQ(to_kelvin(Celsius{0.0}).value(), 273.15);
  EXPECT_DOUBLE_EQ(to_kelvin(Celsius{110.0}).value(), 383.15);
}

TEST(Units, DurationHelpers) {
  EXPECT_DOUBLE_EQ(minutes(2.0).value(), 120.0);
  EXPECT_DOUBLE_EQ(hours(1.0).value(), 3600.0);
  EXPECT_DOUBLE_EQ(days(1.0).value(), 86400.0);
  EXPECT_DOUBLE_EQ(years(1.0).value(), 365.25 * 86400.0);
  EXPECT_DOUBLE_EQ(in_minutes(hours(1.0)), 60.0);
  EXPECT_NEAR(in_years(years(2.5)), 2.5, 1e-12);
}

TEST(Units, ScaleHelpers) {
  // 1 MA/cm^2 = 1e10 A/m^2.
  EXPECT_DOUBLE_EQ(mega_amps_per_cm2(7.96).value(), 7.96e10);
}

TEST(Units, OhmsLaw) {
  const Volts v = Amps{0.5} * Ohms{10.0};
  EXPECT_DOUBLE_EQ(v.value(), 5.0);
  EXPECT_DOUBLE_EQ((Ohms{10.0} * Amps{0.5}).value(), 5.0);
  EXPECT_DOUBLE_EQ((Volts{5.0} / Ohms{10.0}).value(), 0.5);
  EXPECT_DOUBLE_EQ((Volts{5.0} * Amps{2.0}).value(), 10.0);
}

TEST(Units, DefaultConstructedIsZero) {
  EXPECT_DOUBLE_EQ(Watts{}.value(), 0.0);
  EXPECT_DOUBLE_EQ(Pascals{}.value(), 0.0);
}

}  // namespace
}  // namespace dh
