// Engine-level tests for the sparse linear-algebra stack: CSR assembly,
// PCG, the direct factorizations, and the SpdSolver facade — including
// the rejection paths (asymmetric, indefinite, singular) that must raise
// descriptive dh::Error instead of returning garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/math/linalg.hpp"
#include "common/math/sparse/cg.hpp"
#include "common/math/sparse/csr.hpp"
#include "common/math/sparse/direct.hpp"
#include "common/math/sparse/spd_solver.hpp"
#include "common/rng.hpp"

namespace dh::math::sparse {
namespace {

/// Laplacian of a rows x cols 5-point grid with per-edge weight `g_fn`
/// and `ground` added on every diagonal (keeps it SPD).
CsrMatrix grid_laplacian(std::size_t rows, std::size_t cols, double ground,
                         Rng* rng = nullptr) {
  CsrBuilder b(rows * cols, rows * cols, 5);
  const auto weight = [&] {
    return rng != nullptr ? rng->uniform(0.5, 2.0) : 1.0;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * cols + c;
      b.add_diagonal(i, ground);
      if (c + 1 < cols) b.add_edge(i, i + 1, weight());
      if (r + 1 < rows) b.add_edge(i, i + cols, weight());
    }
  }
  return b.build();
}

TEST(Csr, BuilderSortsAndMergesDuplicates) {
  CsrBuilder b(3, 3);
  b.add(0, 2, 1.0);
  b.add(0, 0, 2.0);
  b.add(0, 2, 3.0);  // duplicate accumulates
  b.add(1, 1, 5.0);
  b.add(2, 0, -1.0);
  b.add(2, 2, 4.0);
  const CsrMatrix m = b.build();
  EXPECT_EQ(m.nnz(), 5u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), -1.0);
  // Columns sorted within each row.
  EXPECT_EQ(m.col_idx()[0], 0u);
  EXPECT_EQ(m.col_idx()[1], 2u);
}

TEST(Csr, MultiplyMatchesDense) {
  Rng rng{11};
  const CsrMatrix m = grid_laplacian(4, 5, 0.3, &rng);
  const Matrix dense = m.to_dense();
  std::vector<double> x(m.cols());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const auto y_sparse = m.multiply(x);
  const auto y_dense = dense.multiply(x);
  for (std::size_t i = 0; i < y_sparse.size(); ++i) {
    EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-14);
  }
}

TEST(Csr, StructureQueries) {
  const CsrMatrix m = grid_laplacian(3, 4, 0.1);
  EXPECT_TRUE(m.is_symmetric());
  EXPECT_EQ(m.bandwidth(), 4u);  // i couples to i+cols
  CsrBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 3.0);  // != A(0,1)
  b.add(1, 1, 1.0);
  EXPECT_FALSE(b.build().is_symmetric());
}

TEST(Direct, TridiagonalMatchesThomas) {
  const std::size_t n = 40;
  CsrBuilder b(n, n, 3);
  Rng rng{3};
  for (std::size_t i = 0; i < n; ++i) b.add_diagonal(i, 0.2);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add_edge(i, i + 1, rng.uniform(0.5, 2.0));
  }
  const CsrMatrix a = b.build();
  ASSERT_EQ(a.bandwidth(), 1u);
  const TridiagonalCholesky chol{a};
  std::vector<double> rhs(n);
  for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);
  std::vector<double> x;
  chol.solve(rhs, x);
  const auto residual = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(residual[i], rhs[i], 1e-12);
  }
}

TEST(Direct, BandedCholeskyMatchesDenseLu) {
  Rng rng{7};
  const CsrMatrix a = grid_laplacian(6, 7, 0.4, &rng);
  const BandedCholesky chol{a};
  EXPECT_EQ(chol.band(), 7u);
  std::vector<double> rhs(a.rows());
  for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);
  std::vector<double> x;
  chol.solve(rhs, x);
  const auto x_ref = solve_dense(a.to_dense(), rhs);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-11);
  }
}

TEST(Direct, SingularLaplacianRaisesDescriptiveError) {
  // A pure graph Laplacian with no grounding term is exactly singular
  // (constant null vector) — the healing-stack analogue is a PDN with no
  // pad path to VDD.
  const CsrMatrix a = grid_laplacian(4, 4, 0.0);
  try {
    const BandedCholesky chol{a};
    FAIL() << "expected dh::Error for singular matrix";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pivot"), std::string::npos) << what;
    EXPECT_NE(what.find("singular"), std::string::npos) << what;
  }
}

TEST(Direct, TridiagonalRejectsIndefinite) {
  CsrBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 1, -1.0);  // negative pivot
  EXPECT_THROW(TridiagonalCholesky{b.build()}, Error);
}

TEST(Cg, ZeroRhsReturnsZeroInZeroIterations) {
  const CsrMatrix a = grid_laplacian(4, 4, 0.3);
  const LinearOp op = [&](std::span<const double> v,
                          std::vector<double>& y) { a.multiply(v, y); };
  std::vector<double> x;
  const CgResult res =
      pcg_solve(op, std::vector<double>(a.rows(), 0.0),
                IdentityPreconditioner{}, x, {});
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  for (const double v : x) EXPECT_EQ(v, 0.0);
}

TEST(Cg, IndefiniteOperatorRaisesCurvatureError) {
  CsrBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 1, -2.0);
  const CsrMatrix a = b.build();
  const LinearOp op = [&](std::span<const double> v,
                          std::vector<double>& y) { a.multiply(v, y); };
  std::vector<double> x;
  try {
    (void)pcg_solve(op, std::vector<double>{1.0, 1.0},
                    IdentityPreconditioner{}, x, {});
    FAIL() << "expected dh::Error for indefinite operator";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("positive definite"),
              std::string::npos);
  }
}

TEST(Cg, ReusedWorkspaceCarriesNothingOver) {
  // One workspace across different systems and starts, including a start
  // that is already converged (no iteration runs), must give exactly the
  // results of fresh local scratch.
  Rng rng{5};
  CgWorkspace ws;
  for (int k = 0; k < 6; ++k) {
    const CsrMatrix a = grid_laplacian(3 + k % 3, 5, 0.2, &rng);
    const LinearOp op = [&](std::span<const double> v,
                            std::vector<double>& y) { a.multiply(v, y); };
    std::vector<double> b(a.rows());
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    std::vector<double> start(a.rows(), 0.0);
    if (k == 3) {
      // Converged start: the exact solution of a fresh solve.
      std::vector<double> exact;
      (void)pcg_solve(op, b, IdentityPreconditioner{}, exact, {});
      start = exact;
    }
    std::vector<double> x_ws = start;
    std::vector<double> x_local = start;
    const CgOptions opts{.rel_tolerance = 1e-6};
    const CgResult r_ws =
        pcg_solve(op, b, IdentityPreconditioner{}, x_ws, opts, &ws);
    const CgResult r_local =
        pcg_solve(op, b, IdentityPreconditioner{}, x_local, opts);
    EXPECT_EQ(x_ws, x_local) << "system " << k;
    EXPECT_EQ(r_ws.iterations, r_local.iterations) << "system " << k;
    EXPECT_EQ(r_ws.residual_norm, r_local.residual_norm) << "system " << k;
    if (k == 3) {
      EXPECT_EQ(r_ws.iterations, 0u);
    }
  }
}

TEST(SpdSolver, RefactorMatchesFreshSolverAndRecoversFromFailures) {
  // New values written into the fixed pattern, then refactor(): each
  // solve must equal a fresh solver's bit for bit. Asymmetric and
  // indefinite values must throw from refactor, the solver must refuse
  // to solve until a refactor succeeds, and nothing may carry over.
  Rng rng{19};
  for (const std::size_t rows : {1ul, 6ul}) {
    SpdSolver solver{grid_laplacian(rows, 9, 0.3, &rng)};
    std::vector<double> b(rows * 9);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    std::vector<double> x;
    for (int k = 0; k < 5; ++k) {
      const CsrMatrix next = grid_laplacian(rows, 9, 0.3, &rng);
      if (k == 2) {
        const std::span<double> vals = solver.values();
        for (std::size_t i = 0; i < vals.size(); ++i) {
          vals[i] = next.values()[i];
        }
        vals[1] += 1e-3;  // (0, 1) without its mirror (1, 0)
        EXPECT_THROW(solver.refactor(), Error);
        EXPECT_THROW(solver.solve(b, x), Error);
      }
      if (k == 3) {
        const std::span<double> vals = solver.values();
        for (std::size_t i = 0; i < vals.size(); ++i) {
          vals[i] = next.values()[i];
        }
        vals[next.find(2, 2)] = -5.0;
        try {
          solver.refactor();
          ADD_FAILURE() << "indefinite values were factored";
        } catch (const Error& e) {
          EXPECT_NE(std::string{e.what()}.find("not positive definite"),
                    std::string::npos)
              << e.what();
        }
      }
      const std::span<double> vals = solver.values();
      ASSERT_EQ(vals.size(), next.nnz());
      for (std::size_t i = 0; i < vals.size(); ++i) {
        vals[i] = next.values()[i];
      }
      solver.refactor();
      SpdSolveInfo info;
      solver.solve(b, x, &info);
      SpdSolver fresh{next};
      SpdSolveInfo fresh_info;
      std::vector<double> want;
      fresh.solve(b, want, &fresh_info);
      EXPECT_EQ(x, want) << rows << " rows, step " << k;
      EXPECT_EQ(info.residual_norm, fresh_info.residual_norm);
    }
  }
}

TEST(SpdSolver, PicksMethodFromStructure) {
  const SpdSolver tri{grid_laplacian(1, 32, 0.2)};
  EXPECT_EQ(tri.method(), SpdMethod::kTridiagonal);
  const SpdSolver banded{grid_laplacian(8, 8, 0.2)};
  EXPECT_EQ(banded.method(), SpdMethod::kBandedCholesky);
  // Large meshes factor directly too: there is no iterative engine.
  const SpdSolver large{grid_laplacian(40, 40, 0.2)};
  EXPECT_EQ(large.method(), SpdMethod::kBandedCholesky);
}

TEST(SpdSolver, AllMethodsAgreeWithDenseReference) {
  Rng rng{31};
  for (const std::size_t rows : {1ul, 6ul, 20ul}) {
    const CsrMatrix a = grid_laplacian(rows, 21, 0.15, &rng);
    std::vector<double> rhs(a.rows());
    for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);
    const auto x_ref = solve_dense(a.to_dense(), rhs);

    SpdSolver solver{a};
    SpdSolveInfo info;
    std::vector<double> x;
    solver.solve(rhs, x, &info);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], x_ref[i], 1e-10)
          << "method " << to_string(info.method) << " row count " << rows;
    }
    EXPECT_LT(info.relative_residual, 1e-12);
  }
}

TEST(SpdSolver, RejectsAsymmetricAssembly) {
  CsrBuilder b(3, 3);
  b.add(0, 0, 2.0);
  b.add(1, 1, 2.0);
  b.add(2, 2, 2.0);
  b.add(0, 1, -1.0);  // no mirror entry
  try {
    const SpdSolver solver{b.build()};
    FAIL() << "expected dh::Error for asymmetric matrix";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("symmetric"), std::string::npos);
  }
}

TEST(SpdSolver, IndefiniteRaisesNamedError) {
  // Symmetric and invertible, but indefinite: no Cholesky factor exists,
  // and the facade refuses it rather than solving it some other way.
  // One chain (tridiagonal factor) and one mesh (banded factor).
  CsrBuilder b(3, 3);
  b.add(0, 0, 1.0);
  b.add(1, 1, -3.0);
  b.add(2, 2, 1.0);
  b.add_edge(0, 1, 0.5);
  CsrMatrix mesh = grid_laplacian(4, 4, 0.1);
  for (std::size_t k = mesh.row_ptr()[5]; k < mesh.row_ptr()[6]; ++k) {
    if (mesh.col_idx()[k] == 5) mesh.values()[k] = -10.0;
  }
  ASSERT_TRUE(mesh.is_symmetric());
  for (CsrMatrix a : {b.build(), mesh}) {
    try {
      const SpdSolver solver{std::move(a)};
      FAIL() << "expected dh::Error for an indefinite matrix";
    } catch (const Error& e) {
      EXPECT_NE(std::string{e.what()}.find("not positive definite"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SpdSolver, SingularRaisesDescriptiveErrorOnEveryPath) {
  for (const std::size_t rows : {1ul, 6ul, 20ul}) {
    EXPECT_THROW(
        {
          SpdSolver solver{grid_laplacian(rows, 21, 0.0)};
          std::vector<double> x;
          solver.solve(std::vector<double>(rows * 21, 1.0), x);
        },
        Error)
        << rows << "x21 ungrounded Laplacian must not solve";
  }
}

}  // namespace
}  // namespace dh::math::sparse
