// Tests for math::BandedSpd, the grid solver: in-place assembly, the
// banded Cholesky factor, the 1e-10 residual check, and the rejection
// paths (indefinite, singular, ill-conditioned, non-finite) that must
// raise descriptive dh::Error instead of returning garbage.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/math/banded_spd.hpp"
#include "common/math/linalg.hpp"
#include "common/rng.hpp"
#include "support/test_support.hpp"

namespace dh::math {
namespace {

/// Assembles into `m` the Laplacian of a rows x cols 5-point grid with
/// per-edge weight 1 (or uniform in [0.5, 2) from `rng`) and `ground`
/// added on every diagonal (keeps it SPD).
void assemble_laplacian(BandedSpd& m, std::size_t rows, std::size_t cols,
                        double ground, Rng* rng = nullptr) {
  const auto weight = [&] {
    return rng != nullptr ? test::uniform(*rng, 0.5, 2.0) : 1.0;
  };
  m.clear();
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * cols + c;
      m.add_diagonal(i, ground);
      if (c + 1 < cols) m.add_edge(i, i + 1, weight());
      if (r + 1 < rows) m.add_edge(i, i + cols, weight());
    }
  }
}

BandedSpd grid_laplacian(std::size_t rows, std::size_t cols, double ground,
                         Rng* rng = nullptr) {
  BandedSpd m(rows * cols,
              rows > 1 ? cols : std::min<std::size_t>(cols - 1, 1));
  assemble_laplacian(m, rows, cols, ground, rng);
  return m;
}

/// Dense copy: the dense-LU agreement oracle.
Matrix to_dense(const BandedSpd& a) {
  Matrix m(a.size(), a.size(), 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) m(i, j) = a.at(i, j);
  }
  return m;
}

TEST(BandedSpd, AssemblyStoresEachOffDiagonalOnce) {
  BandedSpd m(5, 2);
  m.add_edge(3, 1, 2.0);
  m.add_diagonal(1, 0.5);
  EXPECT_EQ(m.at(1, 1), 2.5);
  EXPECT_EQ(m.at(3, 3), 2.0);
  EXPECT_EQ(m.at(1, 3), -2.0);
  EXPECT_EQ(m.at(3, 1), -2.0);
  EXPECT_EQ(m.at(4, 0), 0.0);  // outside the band
  EXPECT_THROW(m.add_edge(0, 3, 1.0), Error);  // |i - j| > band
  EXPECT_THROW(m.add_edge(2, 2, 1.0), Error);
  EXPECT_THROW(m.add_diagonal(5, 1.0), Error);
  EXPECT_THROW((void)m.at(0, 5), Error);
  m.clear();
  EXPECT_EQ(m.at(1, 3), 0.0);
}

TEST(Direct, BandedCholeskyMatchesDenseLu) {
  Rng rng{7};
  BandedSpd a = grid_laplacian(6, 7, 0.4, &rng);
  EXPECT_EQ(a.band(), 7u);
  a.factor();
  std::vector<double> rhs(a.size());
  for (auto& v : rhs) v = test::uniform(rng, -1.0, 1.0);
  std::vector<double> x;
  a.solve(rhs, x);
  const auto x_ref = solve_dense(to_dense(a), rhs);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-11);
  }
}

TEST(Direct, SingularLaplacianRaisesDescriptiveError) {
  // A pure graph Laplacian with no grounding term is exactly singular
  // (constant null vector) — the healing-stack analogue is a PDN with no
  // pad path to VDD.
  BandedSpd a = grid_laplacian(4, 4, 0.0);
  try {
    a.factor();
    FAIL() << "expected dh::Error for singular matrix";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pivot"), std::string::npos) << what;
    EXPECT_NE(what.find("singular"), std::string::npos) << what;
  }
}

TEST(Cg, ZeroRhsReturnsZeroInZeroIterations) {
  BandedSpd a = grid_laplacian(4, 4, 0.3);
  a.factor();
  SpdSolveInfo info;
  std::vector<double> x;
  a.solve(std::vector<double>(a.size(), 0.0), x, &info);
  EXPECT_EQ(info.relative_residual, 0.0);
  ASSERT_EQ(x.size(), a.size());
  for (const double v : x) EXPECT_EQ(v, 0.0);
}

TEST(BandedSpd, NonFiniteRhsRaisesInsteadOfReturningNan) {
  BandedSpd a = grid_laplacian(4, 4, 0.3);
  a.factor();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<double> b(a.size(), 1.0);
    b[5] = bad;
    std::vector<double> x;
    EXPECT_THROW(a.solve(b, x), Error) << bad;
  }
}

TEST(SpdSolver, RefactorMatchesFreshSolverAndRecoversFromFailures) {
  // New values assembled in place, then factor(): each solve must equal
  // a fresh matrix's bit for bit. Indefinite values must throw from
  // factor(), the matrix must refuse to solve until a factor succeeds
  // (also after an assembly with no factor), and nothing may carry over.
  Rng rng{19};
  for (const std::size_t rows : {1ul, 6ul}) {
    BandedSpd solver = grid_laplacian(rows, 9, 0.3, &rng);
    solver.factor();
    std::vector<double> b(rows * 9);
    for (auto& v : b) v = test::uniform(rng, -1.0, 1.0);
    std::vector<double> x;
    for (int k = 0; k < 5; ++k) {
      Rng draw = rng;  // the draws `fresh` takes
      BandedSpd fresh = grid_laplacian(rows, 9, 0.3, &rng);
      if (k == 2) {
        Rng again = draw;
        assemble_laplacian(solver, rows, 9, 0.3, &again);
        EXPECT_THROW(solver.solve(b, x), Error);  // assembled, not factored
      }
      if (k == 3) {
        Rng again = draw;
        assemble_laplacian(solver, rows, 9, 0.3, &again);
        solver.add_diagonal(2, -5.0 - solver.at(2, 2));
        try {
          solver.factor();
          ADD_FAILURE() << "indefinite values were factored";
        } catch (const Error& e) {
          EXPECT_NE(std::string{e.what()}.find("not positive definite"),
                    std::string::npos)
              << e.what();
        }
        EXPECT_THROW(solver.solve(b, x), Error);
      }
      assemble_laplacian(solver, rows, 9, 0.3, &draw);
      solver.factor();
      SpdSolveInfo info;
      solver.solve(b, x, &info);
      fresh.factor();
      SpdSolveInfo fresh_info;
      std::vector<double> want;
      fresh.solve(b, want, &fresh_info);
      EXPECT_EQ(x, want) << rows << " rows, step " << k;
      EXPECT_EQ(info.residual_norm, fresh_info.residual_norm);
    }
  }
}

TEST(SpdSolver, AllMethodsAgreeWithDenseReference) {
  // Band 1 (a single row) and band 21 (meshes).
  Rng rng{31};
  for (const std::size_t rows : {1ul, 6ul, 20ul}) {
    BandedSpd a = grid_laplacian(rows, 21, 0.15, &rng);
    std::vector<double> rhs(a.size());
    for (auto& v : rhs) v = test::uniform(rng, -1.0, 1.0);
    const auto x_ref = solve_dense(to_dense(a), rhs);

    a.factor();
    SpdSolveInfo info;
    std::vector<double> x;
    a.solve(rhs, x, &info);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], x_ref[i], 1e-10) << "row count " << rows;
    }
    EXPECT_LT(info.relative_residual, 1e-12);
  }
}

TEST(SpdSolver, IndefiniteRaisesNamedError) {
  // Symmetric and invertible, but indefinite: no Cholesky factor exists,
  // and the solver refuses it rather than solving it some other way.
  // One chain (band 1) and one mesh (band 4).
  BandedSpd chain(3, 1);
  chain.add_diagonal(0, 1.0);
  chain.add_diagonal(1, -3.0);
  chain.add_diagonal(2, 1.0);
  chain.add_edge(0, 1, 0.5);
  BandedSpd mesh = grid_laplacian(4, 4, 0.1);
  mesh.add_diagonal(5, -10.0 - mesh.at(5, 5));
  for (BandedSpd* a : {&chain, &mesh}) {
    try {
      a->factor();
      FAIL() << "expected dh::Error for an indefinite matrix";
    } catch (const Error& e) {
      EXPECT_NE(std::string{e.what()}.find("not positive definite"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SpdSolver, IllConditionedResidualMissRaises) {
  // A 6x6 mesh (1e-2 S edges, 1e2 S corner pads, 1 A drawn at every
  // node) whose 4x4 interior hangs on 1e-9 S links: conductances span
  // 11 decades. The factor passes its pivot floor, but one sweep leaves
  // a relative residual above 1e-10, and the solve must say so.
  constexpr std::size_t kSide = 6;
  const auto island = [](std::size_t i) {
    const std::size_t r = i / kSide;
    const std::size_t c = i % kSide;
    return r >= 1 && r <= 4 && c >= 1 && c <= 4;
  };
  const auto g = [&](std::size_t i, std::size_t j) {
    return island(i) != island(j) ? 1e-9 : 1e-2;
  };
  BandedSpd a(kSide * kSide, kSide);
  for (std::size_t r = 0; r < kSide; ++r) {
    for (std::size_t c = 0; c < kSide; ++c) {
      const std::size_t i = r * kSide + c;
      if (c + 1 < kSide) a.add_edge(i, i + 1, g(i, i + 1));
      if (r + 1 < kSide) a.add_edge(i, i + kSide, g(i, i + kSide));
    }
  }
  std::vector<double> b(a.size(), -1.0);
  for (const std::size_t pad : {0ul, 5ul, 30ul, 35ul}) {
    a.add_diagonal(pad, 1e2);
    b[pad] += 1e2;
  }
  a.factor();
  std::vector<double> x;
  try {
    a.solve(b, x);
    FAIL() << "expected dh::Error for a residual above 1e-10";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("singular"), std::string::npos)
        << e.what();
  }
}

TEST(SpdSolver, SingularRaisesDescriptiveErrorOnEveryPath) {
  for (const std::size_t rows : {1ul, 6ul, 20ul}) {
    EXPECT_THROW(
        {
          BandedSpd a = grid_laplacian(rows, 21, 0.0);
          a.factor();
          std::vector<double> x;
          a.solve(std::vector<double>(rows * 21, 1.0), x);
        },
        Error)
        << rows << "x21 ungrounded Laplacian must not solve";
  }
}

}  // namespace
}  // namespace dh::math
