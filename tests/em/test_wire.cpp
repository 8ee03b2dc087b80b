#include "em/wire.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace dh::em {
namespace {

TEST(Wire, PaperGeometryResistance) {
  // Fig. 3: 2.673 mm x 1.57 um x 0.8 um, 35.76 Ohm at room temperature.
  const WireGeometry w = paper_wire();
  EXPECT_NEAR(w.resistance_at(to_kelvin(Celsius{20.0})).value(), 35.76, 0.1);
}

TEST(Wire, TcrRaisesResistanceWithTemperature) {
  const WireGeometry w = paper_wire();
  const double r20 = w.resistance_at(to_kelvin(Celsius{20.0})).value();
  const double r230 = w.resistance_at(to_kelvin(Celsius{230.0})).value();
  // Copper TCR 0.393%/K over 210 K: ~1.825x.
  EXPECT_NEAR(r230 / r20, 1.0 + 0.00393 * 210.0, 1e-6);
}

TEST(Wire, VoidAddsLinerResistance) {
  const WireGeometry w = paper_wire();
  const Kelvin t = to_kelvin(Celsius{230.0});
  const double r0 = w.resistance_with_void(t, Meters{0.0}).value();
  const double r1 = w.resistance_with_void(t, Meters{26e-9}).value();
  // 26 nm of liner at 62.5 Ohm/um is ~1.6 Ohm (the Fig. 5 scale).
  EXPECT_NEAR(r1 - r0, 26e-9 * w.liner_ohm_per_m, 0.05);
  EXPECT_GT(r1, r0);
}

TEST(Wire, VoidLengthClampedToWire) {
  const WireGeometry w = paper_wire();
  const Kelvin t = to_kelvin(Celsius{20.0});
  const double r_full = w.resistance_with_void(t, w.length).value();
  const double r_over =
      w.resistance_with_void(t, Meters{w.length.value() * 2.0}).value();
  EXPECT_DOUBLE_EQ(r_full, r_over);
}

TEST(Wire, NegativeVoidRejected) {
  const WireGeometry w = paper_wire();
  EXPECT_THROW(
      (void)w.resistance_with_void(to_kelvin(Celsius{20.0}), Meters{-1e-9}),
      Error);
}

TEST(Wire, CurrentForDensity) {
  const WireGeometry w = paper_wire();
  // 7.96 MA/cm^2 through 1.57um x 0.8um is ~0.1 A.
  const double i = w.current_for_density(mega_amps_per_cm2(7.96)).value();
  EXPECT_NEAR(i, 7.96e10 * 1.57e-6 * 0.8e-6, 1e-6);
  EXPECT_NEAR(i, 0.1, 0.01);
}

}  // namespace
}  // namespace dh::em
