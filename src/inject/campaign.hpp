// Fault-injection campaigns — paper Section VI-C.
//
// A campaign repeatedly executes the protected matrix multiplication while
// injecting exactly one fault per run into a floating-point instruction of
// the product kernel (Algorithm 3): a random virtual SM, a random module
// (per-thread result slot), a random injection time kInjection, and an error
// vector targeting the sign, exponent or mantissa field with 1..k flipped
// bits.
//
// Every contender that can check an externally computed product (the ABFT
// family: fixed-abft, a-abft, sea-abft — discovered generically through
// ProtectedBlas3::make_checker) judges the *same* faulty product: the
// schemes share encode and multiply and differ only in the bound
// computation, so per-trial comparisons are paired and unbiased (and cost
// one GEMM for all schemes instead of one each).
//
// Ground truth per trial: the faulty product is diffed against a fault-free
// reference product of the same inputs; the affected element's deviation is
// classified with the probabilistic rounding model (rounding noise /
// tolerable / critical) exactly as the paper's baseline prescribes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "abft/bounds.hpp"
#include "fp/fault_vector.hpp"
#include "gpusim/fault_site.hpp"
#include "gpusim/kernel.hpp"
#include "inject/stats.hpp"
#include "linalg/matmul.hpp"
#include "linalg/workload.hpp"

namespace aabft::inject {

struct CampaignConfig {
  std::size_t n = 256;        ///< square matrix dimension
  std::size_t bs = 32;        ///< checksum block size
  std::size_t p = 2;          ///< A-ABFT p-max parameter
  gpusim::FaultSite site = gpusim::FaultSite::kInnerMul;
  fp::BitField field = fp::BitField::kMantissa;
  int num_bits = 1;           ///< flipped bits (1, 3, 5 in the paper)
  linalg::InputClass input = linalg::InputClass::kUnit;
  double kappa = 65536.0;     ///< condition number for the dynamic input class
  std::size_t trials = 50;    ///< multiplications with injections
  /// Faults armed per multiplication. The paper always injects one; values
  /// up to gpusim::FaultController::kMaxFaults exercise the partitioned
  /// scheme's multi-error behaviour (detection is still paired across both
  /// schemes; classification then uses the largest corrupted deviation).
  std::size_t faults_per_trial = 1;
  std::uint64_t seed = 0x5eed;
  abft::BoundParams bounds;   ///< omega = 3, policy, fma
  double fixed_epsilon = 1e-8; ///< manual bound of the fixed-ABFT contender
  linalg::GemmConfig gemm;

  [[nodiscard]] bool valid() const noexcept {
    return n > 0 && n % bs == 0 && trials > 0 && faults_per_trial >= 1 &&
           faults_per_trial <= gpusim::FaultController::kMaxFaults &&
           gemm.valid() && bounds.fma == gemm.use_fma;
  }
};

/// Run one campaign. The launcher's fault controller is managed internally.
[[nodiscard]] CampaignResult run_campaign(gpusim::Launcher& launcher,
                                          const CampaignConfig& config);

}  // namespace aabft::inject
