#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "spice/dense.hpp"
#include "spice/sparse.hpp"
#include "util/rng.hpp"

namespace {

using namespace mda::spice;

TEST(Csc, FromTripletsSumsDuplicates) {
  // 2x2 with a duplicated (0,0) entry.
  const CscMatrix m = CscMatrix::from_triplets(2, {0, 0, 1, 0}, {0, 0, 1, 1},
                                               {1.0, 2.0, 5.0, 4.0});
  std::vector<double> x = {1.0, 1.0};
  std::vector<double> y;
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0 + 4.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
}

TEST(Csc, MultiplyIdentity) {
  const CscMatrix m =
      CscMatrix::from_triplets(3, {0, 1, 2}, {0, 1, 2}, {1.0, 1.0, 1.0});
  std::vector<double> x = {3.0, -2.0, 7.0};
  std::vector<double> y;
  m.multiply(x, y);
  EXPECT_EQ(y, x);
}

TEST(SparseLu, SolvesIdentity) {
  const CscMatrix m =
      CscMatrix::from_triplets(3, {0, 1, 2}, {0, 1, 2}, {2.0, 4.0, 8.0});
  SparseLu lu;
  ASSERT_TRUE(lu.factor(m));
  std::vector<double> b = {2.0, 4.0, 8.0};
  lu.solve(b);
  for (double v : b) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(SparseLu, DetectsSingular) {
  // Second column is zero.
  const CscMatrix m = CscMatrix::from_triplets(2, {0}, {0}, {1.0});
  SparseLu lu;
  EXPECT_FALSE(lu.factor(m));
}

TEST(SparseLu, PivotingHandlesZeroDiagonal) {
  // [[0, 1], [1, 0]] requires a row swap.
  const CscMatrix m =
      CscMatrix::from_triplets(2, {1, 0}, {0, 1}, {1.0, 1.0});
  SparseLu lu;
  ASSERT_TRUE(lu.factor(m));
  std::vector<double> b = {3.0, 5.0};
  lu.solve(b);
  EXPECT_NEAR(b[0], 5.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

class RandomSystem : public ::testing::TestWithParam<int> {};

TEST_P(RandomSystem, SparseMatchesDense) {
  const int n = GetParam();
  mda::util::Rng rng(1234 + static_cast<std::uint64_t>(n));
  // Diagonally dominant random sparse matrix (like an MNA conductance map).
  std::vector<int> rows, cols;
  std::vector<double> vals;
  std::vector<double> dense(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    double diag = 1.0;
    for (int k = 0; k < 4; ++k) {
      const int j = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
      if (j == i) continue;
      const double v = rng.uniform(-1.0, 1.0);
      rows.push_back(i);
      cols.push_back(j);
      vals.push_back(v);
      dense[static_cast<std::size_t>(i) * n + j] += v;
      diag += std::abs(v);
    }
    rows.push_back(i);
    cols.push_back(i);
    vals.push_back(diag);
    dense[static_cast<std::size_t>(i) * n + i] += diag;
  }
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(-5.0, 5.0);

  const CscMatrix a = CscMatrix::from_triplets(n, rows, cols, vals);
  SparseLu slu;
  ASSERT_TRUE(slu.factor(a));
  std::vector<double> xs = b;
  slu.solve(xs);

  DenseLu dlu;
  ASSERT_TRUE(dlu.factor(n, dense));
  std::vector<double> xd = b;
  dlu.solve(xd);

  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(xs[static_cast<std::size_t>(i)], xd[static_cast<std::size_t>(i)],
                1e-8 * (1.0 + std::abs(xd[static_cast<std::size_t>(i)])));
  }
  // Residual check: A*x == b.
  std::vector<double> ax;
  a.multiply(xs, ax);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)],
                1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomSystem,
                         ::testing::Values(1, 2, 3, 10, 16, 50, 200, 500));

// Build a diagonally dominant random sparse system and return its triplets.
struct RandomTriplets {
  std::vector<int> rows, cols;
  std::vector<double> vals;
};

RandomTriplets make_random_triplets(int n, std::uint64_t seed) {
  mda::util::Rng rng(seed);
  RandomTriplets t;
  for (int i = 0; i < n; ++i) {
    double diag = 1.0;
    for (int k = 0; k < 4; ++k) {
      const int j = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
      if (j == i) continue;
      const double v = rng.uniform(-1.0, 1.0);
      t.rows.push_back(i);
      t.cols.push_back(j);
      t.vals.push_back(v);
      diag += std::abs(v);
    }
    t.rows.push_back(i);
    t.cols.push_back(i);
    t.vals.push_back(diag);
  }
  return t;
}

class RefactorSystem : public ::testing::TestWithParam<int> {};

// refactor() must replay factor()'s exact arithmetic: with values a fresh
// factor would pivot identically on, L/U — and therefore every solve — are
// bit-identical to a from-scratch factorisation.
TEST_P(RefactorSystem, RefactorBitIdenticalToFactor) {
  const int n = GetParam();
  RandomTriplets t = make_random_triplets(n, 99 + static_cast<std::uint64_t>(n));
  const CscMatrix a0 =
      CscMatrix::from_triplets(n, t.rows, t.cols, t.vals);

  SparseLu cached;
  ASSERT_TRUE(cached.factor(a0));

  mda::util::Rng rng(7);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(-5.0, 5.0);

  // Several Newton-like value updates on the fixed pattern: mild scaling
  // keeps the diagonal dominant, so the inherited pivot order stays optimal.
  for (int round = 0; round < 5; ++round) {
    for (double& v : t.vals) v *= rng.uniform(0.9, 1.1);
    const CscMatrix a = CscMatrix::from_triplets(n, t.rows, t.cols, t.vals);

    ASSERT_TRUE(cached.refactor(a)) << "round " << round;
    std::vector<double> x_refactor = b;
    cached.solve(x_refactor);

    SparseLu fresh;
    ASSERT_TRUE(fresh.factor(a));
    std::vector<double> x_factor = b;
    fresh.solve(x_factor);

    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(x_refactor[static_cast<std::size_t>(i)],
                x_factor[static_cast<std::size_t>(i)])
          << "round " << round << " unknown " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RefactorSystem,
                         ::testing::Values(10, 50, 200, 500));

TEST(SparseLuRefactor, PivotDegradationFallsBackToFactor) {
  // Factor with a dominant diagonal so the diagonal is the pivot ...
  const CscMatrix strong = CscMatrix::from_triplets(
      2, {0, 0, 1, 1}, {0, 1, 0, 1}, {10.0, 1.0, 1.0, 10.0});
  SparseLu lu;
  ASSERT_TRUE(lu.factor(strong));

  // ... then collapse A(0,0): the inherited pivot is 1e9 times smaller than
  // the off-diagonal candidate a fresh partial-pivoting pass would take.
  const CscMatrix degraded = CscMatrix::from_triplets(
      2, {0, 0, 1, 1}, {0, 1, 0, 1}, {1e-9, 1.0, 1.0, 10.0});
  EXPECT_FALSE(lu.refactor(degraded));

  // The caller's fallback — a full repivoting factor() — must succeed and
  // solve correctly.
  ASSERT_TRUE(lu.factor(degraded));
  std::vector<double> b = {1.0, 11.0};
  lu.solve(b);
  std::vector<double> ax;
  degraded.multiply(b, ax);
  EXPECT_NEAR(ax[0], 1.0, 1e-9);
  EXPECT_NEAR(ax[1], 11.0, 1e-9);
}

TEST(SparseLuRefactor, RequiresPriorFactor) {
  const CscMatrix m =
      CscMatrix::from_triplets(2, {0, 1}, {0, 1}, {1.0, 1.0});
  SparseLu lu;
  EXPECT_FALSE(lu.refactor(m));
  ASSERT_TRUE(lu.factor(m));
  EXPECT_TRUE(lu.refactor(m));
  // Pattern fingerprint mismatch (different nnz) is rejected.
  const CscMatrix bigger = CscMatrix::from_triplets(
      2, {0, 1, 0}, {0, 1, 1}, {1.0, 1.0, 0.5});
  EXPECT_FALSE(lu.refactor(bigger));
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Two factorisations of one A pattern are bitwise the same: same pivots and
// L/U pattern, same L/U bits, and the same bits out of a solve.
void expect_same_factors(SparseLu& x, SparseLu& y, const char* what) {
  ASSERT_TRUE(SparseLu::structure_equal(x, y)) << what;
  EXPECT_TRUE(same_bits(x.l_values(), y.l_values())) << what;
  EXPECT_TRUE(same_bits(x.u_values(), y.u_values())) << what;
  std::vector<double> bx(static_cast<std::size_t>(x.dimension()));
  for (std::size_t i = 0; i < bx.size(); ++i) {
    bx[i] = 1.0 + 0.25 * static_cast<double>(i);
  }
  std::vector<double> by = bx;
  x.solve(bx);
  y.solve(by);
  EXPECT_TRUE(same_bits(bx, by)) << what;
}

// 4x4 [c | e0 | e2 | e3]: column 0 carries the pivot candidates, the unit
// columns make the rest of the elimination follow from column 0's pivot.
CscMatrix first_column_system(const std::vector<double>& c) {
  return CscMatrix::from_triplets(4, {0, 1, 2, 3, 0, 2, 3},
                                  {0, 0, 0, 0, 1, 2, 3},
                                  {c[0], c[1], c[2], c[3], 1.0, 1.0, 1.0});
}

// refactor_cold_exact() must accept exactly when a cold factor() would pick
// the inherited pivots, ties included.  Column 0's rows 1 and 2 tie in
// magnitude; factor()'s scan visits candidates in post-order (rows 0, 1, 2,
// 3 here) with strict >, so a cold factor() takes row 1.  Inheriting any
// other row — the tied twin above all — must be rejected; inheriting row 1
// must reproduce the cold factor() bit for bit.
TEST(SparseLuRefactor, ColdExactMatchesColdFactorOnTies) {
  const CscMatrix tie = first_column_system({1.0, 2.0, -2.0, 1.0});
  SparseLu cold;
  ASSERT_TRUE(cold.factor(tie));
  for (int p = 0; p < 4; ++p) {
    std::vector<double> steer = {1.0, 2.0, -2.0, 1.0};
    steer[static_cast<std::size_t>(p)] = 8.0;  // make row p the clear winner
    SparseLu lu;
    ASSERT_TRUE(lu.factor(first_column_system(steer)));
    const bool same_pivots = SparseLu::structure_equal(lu, cold);
    EXPECT_EQ(same_pivots, p == 1) << "inherited pivot row " << p;
    ASSERT_EQ(lu.refactor_cold_exact(tie), same_pivots)
        << "inherited pivot row " << p;
    if (same_pivots) expect_same_factors(lu, cold, "tie, inherited row 1");
  }
  // Flip the tie by one ulp towards row 2: the inherited row 1 no longer
  // wins a cold scan, so the re-entry must be refused.
  SparseLu lu;
  ASSERT_TRUE(lu.factor(tie));
  EXPECT_FALSE(lu.refactor_cold_exact(
      first_column_system({1.0, 2.0, -std::nextafter(2.0, 3.0), 1.0})));
}

// Random pattern with a wide spread of shapes — columns with no
// off-diagonal entries (empty L and U), dense ones, missing diagonals — and
// small-integer values, so tied pivot candidates and exact zeros (stored in
// A, and produced by cancellation) are common.
CscMatrix fuzz_pattern(int n, mda::util::Rng& rng) {
  std::vector<int> rows, cols;
  std::vector<double> vals;
  for (int c = 0; c < n; ++c) {
    if (rng.uniform(0.0, 1.0) < 0.9) {
      rows.push_back(c);
      cols.push_back(c);
      vals.push_back(0.0);
    }
    const int extra = static_cast<int>(rng.index(4));
    for (int k = 0; k < extra; ++k) {
      rows.push_back(static_cast<int>(rng.index(static_cast<std::size_t>(n))));
      cols.push_back(c);
      vals.push_back(0.0);
    }
  }
  return CscMatrix::from_triplets(n, rows, cols, vals);
}

void fuzz_values(CscMatrix& a, mda::util::Rng& rng) {
  static constexpr double kLevels[] = {0.0, 1.0, -1.0, 2.0, -2.0, 3.0, 0.5};
  for (double& v : a.values) v = kLevels[rng.index(7)];
}

// Bit-exact refactor() must equal a repivoting factor() from the same pivot
// memory exactly when it accepts, and refactor_cold_exact() must equal a
// cold factor() exactly when it accepts; both refuse precisely when that
// factor() would pivot differently (or find the matrix singular).
TEST(SparseLuRefactor, FuzzedPatternsAcceptExactlyWhenFactorAgrees) {
  mda::util::Rng rng(2026);
  int accepted = 0, refused = 0, cold_accepted = 0, cold_refused = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const int n = 1 + static_cast<int>(rng.index(24));
    CscMatrix a = fuzz_pattern(n, rng);
    SparseLu lu;
    lu.set_bit_exact(true);
    fuzz_values(a, rng);
    if (!lu.factor(a)) continue;
    for (int round = 0; round < 4; ++round) {
      fuzz_values(a, rng);
      const SparseLu before = lu;

      SparseLu warm = before;  // same pivot memory
      const bool warm_ok = warm.factor(a);
      const bool ok = lu.refactor(a);
      EXPECT_EQ(ok, warm_ok && SparseLu::structure_equal(before, warm))
          << "trial " << trial << " round " << round;
      if (ok) {
        expect_same_factors(lu, warm, "bit-exact refactor");
        ++accepted;
      } else {
        ++refused;
      }

      SparseLu reentry = before;
      SparseLu cold;
      cold.set_bit_exact(true);
      const bool cold_ok = cold.factor(a);
      const bool cold_exact = reentry.refactor_cold_exact(a);
      EXPECT_EQ(cold_exact,
                cold_ok && SparseLu::structure_equal(before, cold))
          << "trial " << trial << " round " << round;
      if (cold_exact) {
        expect_same_factors(reentry, cold, "cold-exact refactor");
        ++cold_accepted;
      } else {
        ++cold_refused;
      }
      if (!ok && !lu.factor(a)) break;  // the caller's fallback
    }
  }
  // The fuzz must exercise both verdicts of both guards.
  EXPECT_GT(accepted, 50);
  EXPECT_GT(refused, 50);
  EXPECT_GT(cold_accepted, 50);
  EXPECT_GT(cold_refused, 50);
}

TEST(DenseLu, SingularDetected) {
  DenseLu lu;
  EXPECT_FALSE(lu.factor(2, {1.0, 2.0, 2.0, 4.0}));
}

TEST(DenseLu, Solves2x2) {
  DenseLu lu;
  ASSERT_TRUE(lu.factor(2, {2.0, 1.0, 1.0, 3.0}));
  std::vector<double> b = {5.0, 10.0};
  lu.solve(b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

}  // namespace
