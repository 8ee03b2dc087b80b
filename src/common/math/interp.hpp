// Piecewise-linear interpolation on tabulated functions (PWL waveforms)
// and 1-D grids (the Korhonen grid).
#pragma once

#include <span>
#include <vector>

namespace dh::math {

/// Linear interpolation of (xs, ys) at x, clamped to the table range.
/// xs must be strictly increasing; a non-finite x throws dh::Error.
[[nodiscard]] double interp_linear(std::span<const double> xs,
                                   std::span<const double> ys, double x);

/// Uniformly spaced grid of n points on [lo, hi] inclusive.
[[nodiscard]] std::vector<double> linspace(double lo, double hi,
                                           std::size_t n);

/// Geometrically stretched grid from x0 with first cell `dx0`, growth
/// ratio `ratio`, covering [x0, x1]; used for the EM solver where all the
/// action is within a few diffusion lengths of the cathode. Returns node
/// coordinates including both endpoints.
[[nodiscard]] std::vector<double> stretched_grid(double x0, double x1,
                                                 double dx0, double ratio);

}  // namespace dh::math
