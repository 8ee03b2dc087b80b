#include "circuit/waveform.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace dh::circuit {
namespace {

TEST(Waveform, DcIsConstant) {
  const Waveform w = Waveform::dc(1.5);
  EXPECT_DOUBLE_EQ(w.value(0.0), 1.5);
  EXPECT_DOUBLE_EQ(w.value(1e9), 1.5);
}

TEST(Waveform, PwlInterpolatesAndClamps) {
  const Waveform w = Waveform::pwl({0.0, 1.0, 2.0}, {0.0, 2.0, 0.0});
  EXPECT_DOUBLE_EQ(w.value(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value(1.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value(5.0), 0.0);
}

TEST(Waveform, PwlValidation) {
  EXPECT_THROW(Waveform::pwl({1.0, 0.0}, {0.0, 1.0}), dh::Error);
  EXPECT_THROW(Waveform::pwl({0.0}, {0.0}), dh::Error);
}

TEST(Waveform, StepTransitions) {
  const Waveform w = Waveform::step(0.2, 0.8, 5.0, 0.1);
  EXPECT_DOUBLE_EQ(w.value(4.9), 0.2);
  EXPECT_DOUBLE_EQ(w.value(5.05), 0.5);
  EXPECT_DOUBLE_EQ(w.value(5.2), 0.8);
  EXPECT_DOUBLE_EQ(w.value(100.0), 0.8);
}

}  // namespace
}  // namespace dh::circuit
