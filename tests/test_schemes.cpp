// Unified scheme interface: every contender is driven through the same
// ProtectedBlas3 vtable with no per-scheme branching, produces a correct
// product on clean inputs, and reports recoverable misuse through Result<>.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/schemes.hpp"
#include "core/rng.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace {

using aabft::ErrorCode;
using aabft::Result;
using aabft::Rng;
using namespace aabft::baselines;
using aabft::gpusim::Launcher;
using aabft::linalg::Matrix;
using aabft::linalg::naive_matmul;
using aabft::linalg::uniform_matrix;

Result<OpOutcome> gemm(ProtectedBlas3& scheme, const Matrix& a,
                       const Matrix& b) {
  return scheme.execute(OpDescriptor::gemm(a.rows(), a.cols(), b.cols()), a,
                        b);
}

TEST(Schemes, FactoryListsContendersInTableOrder) {
  Launcher launcher;
  const auto schemes = make_schemes(launcher);
  std::vector<std::string> names;
  for (const auto& scheme : schemes) names.emplace_back(scheme->name());
  EXPECT_EQ(names, (std::vector<std::string>{"unprotected", "fixed-abft",
                                             "a-abft", "sea-abft", "tmr"}));

  SchemeSuiteConfig with_diverse;
  with_diverse.include_diverse_tmr = true;
  const auto all = make_schemes(launcher, with_diverse);
  EXPECT_EQ(all.size(), 6u);
  EXPECT_EQ(all.back()->name(), "diverse-tmr");
}

TEST(Schemes, EveryContenderMultipliesCleanlyThroughTheInterface) {
  Rng rng(7);
  const std::size_t n = 64;
  const Matrix a = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix b = uniform_matrix(n, n, -1.0, 1.0, rng);
  const Matrix ref = naive_matmul(a, b, false);

  Launcher launcher;
  SchemeSuiteConfig config;
  config.include_diverse_tmr = true;
  for (const auto& scheme : make_schemes(launcher, config)) {
    const auto result = gemm(*scheme, a, b);
    ASSERT_TRUE(result.ok()) << scheme->name();
    EXPECT_TRUE(result->clean) << scheme->name();
    EXPECT_FALSE(result->detected) << scheme->name();
    // Diverse TMR votes across kernels with different accumulation orders,
    // so its product is only close; every other contender is bit-identical.
    if (scheme->name() == "diverse-tmr")
      EXPECT_LT(result->c.max_abs_diff(ref), 1e-12) << scheme->name();
    else
      EXPECT_EQ(result->c, ref) << scheme->name();
  }
}

TEST(Schemes, EveryContenderRejectsShapeMismatchRecoverably) {
  Launcher launcher;
  SchemeSuiteConfig config;
  config.include_diverse_tmr = true;
  const Matrix a(32, 20);
  const Matrix b(32, 32);  // a.cols() != b.rows()
  for (const auto& scheme : make_schemes(launcher, config)) {
    const auto result = gemm(*scheme, a, b);
    ASSERT_FALSE(result.ok()) << scheme->name();
    EXPECT_EQ(result.error().code, ErrorCode::kShapeMismatch) << scheme->name();
  }
}

}  // namespace
