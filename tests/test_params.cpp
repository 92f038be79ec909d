// Tests for the parameter schedule (core/params.hpp) against the paper's
// formulas.
#include <gtest/gtest.h>

#include <cmath>

#include "core/params.hpp"

namespace {

using nas::core::Params;

TEST(Params, ValidationRejectsBadInputs) {
  EXPECT_THROW(Params::practical(1, 0.5, 3, 0.4), std::invalid_argument);   // n
  EXPECT_THROW(Params::practical(100, 0.5, 1, 0.4), std::invalid_argument); // κ
  EXPECT_THROW(Params::practical(100, 0.5, 2, 0.49), std::invalid_argument); // κρ<1
  EXPECT_THROW(Params::practical(100, 0.5, 3, 0.2), std::invalid_argument); // ρ<1/κ
  EXPECT_THROW(Params::practical(100, 0.5, 3, 0.5), std::invalid_argument); // ρ≥1/2
  EXPECT_THROW(Params::practical(100, 0.0, 3, 0.4), std::invalid_argument); // ε
  EXPECT_THROW(Params::practical(100, 1.0, 3, 0.4), std::invalid_argument); // ε
  EXPECT_THROW(Params::paper(100, 1.5, 3, 0.4), std::invalid_argument);     // ε'
  EXPECT_NO_THROW(Params::practical(100, 0.5, 3, 0.4));
  EXPECT_NO_THROW(Params::paper(100, 1.0, 3, 0.4));
}

TEST(Params, EllFormulaMatchesPaper) {
  // ℓ = ⌊log₂ κρ⌋ + ⌈(κ+1)/(κρ)⌉ − 1  (paper Section 2.1)
  const auto check = [](int kappa, double rho, int expected_i0, int expected_ell) {
    const auto p = Params::practical(1000, 0.25, kappa, rho);
    EXPECT_EQ(p.i0(), expected_i0) << "kappa=" << kappa << " rho=" << rho;
    EXPECT_EQ(p.ell(), expected_ell) << "kappa=" << kappa << " rho=" << rho;
  };
  // κρ = 1.2: i0 = 0, ⌈4/1.2⌉ = 4, ℓ = 3.
  check(3, 0.4, 0, 3);
  // κρ = 1.96: i0 = 0, ⌈5/1.96⌉ = 3, ℓ = 2.
  check(4, 0.49, 0, 2);
  // κρ = 3.2: i0 = 1, ⌈9/3.2⌉ = 3, ℓ = 3.
  check(8, 0.4, 1, 3);
  // κρ = 4.8: i0 = 2, ⌈13/4.8⌉ = 3, ℓ = 4.
  check(12, 0.4, 2, 4);
}

TEST(Params, DegreeScheduleExponentialThenFixed) {
  const auto p = Params::practical(4096, 0.25, 8, 0.4);  // i0 = 1, ell = 3
  const double n = 4096.0;
  // Exponential stage: deg_i = ⌈n^{2^i/κ}⌉.
  EXPECT_EQ(p.phase(0).deg, static_cast<std::uint64_t>(std::ceil(std::pow(n, 1.0 / 8))));
  EXPECT_EQ(p.phase(1).deg, static_cast<std::uint64_t>(std::ceil(std::pow(n, 2.0 / 8))));
  // Fixed stage and concluding phase: deg_i = ⌈n^ρ⌉.
  const auto nrho = static_cast<std::uint64_t>(std::ceil(std::pow(n, 0.4)));
  EXPECT_EQ(p.phase(2).deg, nrho);
  EXPECT_EQ(p.phase(3).deg, nrho);
  // deg_i <= n^rho throughout (paper: "we must keep deg_i <= n^rho").
  for (const auto& ph : p.phases()) EXPECT_LE(ph.deg, nrho);
}

TEST(Params, DeltaAndRadiusRecurrences) {
  const auto p = Params::practical(1000, 0.25, 3, 0.4);
  // Phase 0: L=1, R=0, δ=1, q=2, D=2c, R₁=2c.
  const auto& p0 = p.phase(0);
  EXPECT_EQ(p0.L, 1u);
  EXPECT_EQ(p0.radius, 0u);
  EXPECT_EQ(p0.delta, 1u);
  EXPECT_EQ(p0.q, 2u);
  const auto c = static_cast<std::uint64_t>(p.c());
  EXPECT_EQ(c, 3u);  // ⌈1/0.4⌉
  EXPECT_EQ(p0.forest_depth, 2 * c);
  EXPECT_EQ(p0.radius_next, 2 * c);
  // Phase 1: L = ⌊4⌋ = 4, R₁ = 6, δ = 4 + 12 = 16, D = 2·16·3 = 96.
  const auto& p1 = p.phase(1);
  EXPECT_EQ(p1.L, 4u);
  EXPECT_EQ(p1.radius, 6u);
  EXPECT_EQ(p1.delta, 16u);
  EXPECT_EQ(p1.forest_depth, 96u);
  EXPECT_EQ(p1.radius_next, 102u);
  // Phase 2: L = 16, δ = 16 + 204 = 220.
  EXPECT_EQ(p.phase(2).delta, 220u);
  // Concluding phase has no superclustering.
  EXPECT_TRUE(p.phases().back().concluding);
  EXPECT_EQ(p.phases().back().forest_depth, 0u);
}

TEST(Params, RadiusGrowsFastEnoughForLemma215) {
  // eq. (12) needs 3·R_j ≤ R_i for all j < i.
  const auto p = Params::practical(100000, 0.3, 6, 0.35);
  for (std::size_t i = 1; i < p.phases().size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_LE(3 * p.phase(j).radius, p.phase(i).radius);
    }
  }
}

TEST(Params, StretchRecursionMatchesHandComputation) {
  const auto p = Params::practical(1000, 0.25, 3, 0.4);
  // A_i = 2A_{i-1} + 6R_i;  M_i = M_{i-1} + A_i/L_i with R as above.
  // A_1 = 6*6 = 36;          M_1 = 1 + 36/4 = 10.
  // A_2 = 72 + 6*102 = 684;  M_2 = 10 + 684/16 = 52.75.
  // R_3 = 102 + 2*220*3 = 1422; A_3 = 1368 + 6*1422 = 9900;
  // L_3 = 64; M_3 = 52.75 + 9900/64 = 207.4375.
  EXPECT_DOUBLE_EQ(p.phase(1).additive, 36.0);
  EXPECT_DOUBLE_EQ(p.phase(1).multiplicative, 10.0);
  EXPECT_DOUBLE_EQ(p.phase(2).additive, 684.0);
  EXPECT_DOUBLE_EQ(p.phase(3).radius, 1422.0);
  EXPECT_DOUBLE_EQ(p.stretch_additive(), 9900.0);
  EXPECT_DOUBLE_EQ(p.stretch_multiplicative(), 207.4375);
}

TEST(Params, PaperModeRescaling) {
  // Section 2.4.4: ε_internal = ε'ρ/(30ℓ); β = ε_internal^{-ℓ}.
  const auto p = Params::paper(1000, 1.0, 3, 0.4);
  EXPECT_TRUE(p.is_paper_mode());
  EXPECT_EQ(p.ell(), 3);
  EXPECT_NEAR(p.eps_internal(), 1.0 * 0.4 / (30.0 * 3), 1e-12);
  EXPECT_NEAR(p.beta_paper(), std::pow(90.0 / 0.4, 3.0), 1e-6);
  EXPECT_DOUBLE_EQ(p.eps_user(), 1.0);
}

TEST(Params, FromModeBuildsTheNamedScheduleOnly) {
  const auto practical = Params::from_mode("practical", 1000, 0.25, 3, 0.4);
  EXPECT_FALSE(practical.is_paper_mode());
  EXPECT_EQ(practical.describe(), Params::practical(1000, 0.25, 3, 0.4).describe());
  const auto paper = Params::from_mode("paper", 1000, 0.5, 3, 0.4, 2000);
  EXPECT_TRUE(paper.is_paper_mode());
  EXPECT_EQ(paper.describe(), Params::paper(1000, 0.5, 3, 0.4, 2000).describe());
  for (const char* bad : {"papr", "Paper", "", "practical "}) {
    EXPECT_THROW((void)Params::from_mode(bad, 1000, 0.25, 3, 0.4),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(Params::check_mode(bad), std::invalid_argument) << bad;
  }
  EXPECT_NO_THROW(Params::check_mode("practical"));
  EXPECT_NO_THROW(Params::check_mode("paper"));
}

TEST(Params, BetaDecreasesWithLargerEps) {
  const double b1 = Params::paper(1000, 0.5, 3, 0.4).beta_paper();
  const double b2 = Params::paper(1000, 1.0, 3, 0.4).beta_paper();
  EXPECT_GT(b1, b2);
}

TEST(Params, BetaFormulaEq18Consistent) {
  // The closed form with instantiated constants equals β computed through
  // the rescaling.
  for (const double eps : {0.25, 0.5, 1.0}) {
    const double direct = Params::beta_formula_eq18(eps, 3, 0.4);
    const double via_params = Params::paper(1000, eps, 3, 0.4).beta_paper();
    EXPECT_NEAR(direct / via_params, 1.0, 1e-9) << eps;
  }
}

TEST(Params, BoundsArePositiveAndMonotoneInN) {
  const auto small = Params::paper(1000, 1.0, 3, 0.4);
  const auto large = Params::paper(100000, 1.0, 3, 0.4);
  EXPECT_GT(small.size_bound(), 0.0);
  EXPECT_GT(large.size_bound(), small.size_bound());
  EXPECT_GT(large.rounds_bound(), small.rounds_bound());
}

TEST(Params, RulingBaseCoversIdSpace) {
  for (const nas::graph::Vertex n : {64u, 1000u, 4096u, 100000u}) {
    const auto p = Params::practical(n, 0.25, 3, 0.4);
    long double span = 1.0L;
    for (int t = 0; t < p.c(); ++t) span *= p.ruling_base();
    EXPECT_GE(span, static_cast<long double>(n));
  }
}

TEST(Params, InfeasibleScheduleOverflowThrows) {
  // ε extremely small and many phases: δ_ℓ overflows the u64 guard.
  EXPECT_THROW(Params::practical(1000, 1e-5, 16, 0.45), std::invalid_argument);
}

TEST(Params, DescribeMentionsKeyNumbers) {
  const auto p = Params::practical(500, 0.25, 3, 0.4);
  const auto s = p.describe();
  EXPECT_NE(s.find("practical"), std::string::npos);
  EXPECT_NE(s.find("ell=3"), std::string::npos);
}

TEST(Params, PhaseCountIsEllPlusOne) {
  for (int kappa : {2, 3, 4, 8}) {
    for (double rho : {0.45, 0.4, 0.35}) {
      if (rho < 1.0 / kappa) continue;
      const auto p = Params::practical(2000, 0.3, kappa, rho);
      EXPECT_EQ(p.phases().size(), static_cast<std::size_t>(p.ell()) + 1);
    }
  }
}

}  // namespace
