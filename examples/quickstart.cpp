// Quickstart: protect a matrix multiplication with A-ABFT in ~20 lines.
//
// Build & run:   ./build/examples/quickstart
//
// The example multiplies two random matrices under A-ABFT protection, then
// repeats the multiplication with a fault injected into one floating-point
// instruction of the GEMM kernel and shows the autonomous detection,
// localisation and correction — no calibration, no user-provided bounds.
#include <cstdio>
#include <utility>
#include <vector>

#include "abft/aabft.hpp"
#include "core/rng.hpp"
#include "fp/fault_vector.hpp"
#include "gpusim/kernel.hpp"
#include "linalg/workload.hpp"

int main() {
  using namespace aabft;

  // Inputs: 256 x 256 random doubles in [-1, 1].
  Rng rng(42);
  const auto a = linalg::uniform_matrix(256, 256, -1.0, 1.0, rng);
  const auto b = linalg::uniform_matrix(256, 256, -1.0, 1.0, rng);

  // A protected multiplier: block size 32, p = 2 tracked maxima, 3-sigma
  // confidence bounds — the paper's configuration.
  gpusim::Launcher launcher;
  abft::AabftConfig config;
  config.bs = 32;
  config.p = 2;
  abft::AabftMultiplier mult(launcher, config);

  // 1. Fault-free multiply: the autonomous bounds absorb the rounding noise.
  const auto clean = mult.multiply(a, b).value();
  std::printf("fault-free run : detected=%s (expected: no false positive)\n",
              clean.error_detected() ? "yes" : "no");

  // 2. Same multiply with a transient fault: flip 3 mantissa bits in one
  //    inner-loop multiplication on SM 4.
  gpusim::FaultController controller;
  launcher.set_fault_controller(&controller);
  gpusim::FaultConfig fault;
  fault.site = gpusim::FaultSite::kInnerMul;
  fault.sm_id = 4;
  fault.module_id = 7;
  fault.k_injection = 123;
  fault.error_vec = fp::make_error_vec(fp::BitField::kMantissa, 3, rng);
  controller.arm(fault);

  const auto faulty = mult.multiply(a, b).value();
  launcher.set_fault_controller(nullptr);

  std::printf("faulty run     : injected=%s detected=%s panel-replays=%zu "
              "corrections=%zu recheck-clean=%s\n",
              controller.fired() ? "yes" : "no",
              faulty.error_detected() ? "yes" : "no",
              faulty.panel_recomputes, faulty.corrections.size(),
              faulty.recheck_clean ? "yes" : "no");

  if (!faulty.corrections.empty()) {
    const auto& c = faulty.corrections.front();
    std::printf("localised at   : block (%zu,%zu), element (%zu,%zu): "
                "%.17g -> %.17g\n",
                c.block_row, c.block_col, c.local_row, c.local_col,
                c.old_value, c.new_value);
  }

  // 3. The repaired result matches the fault-free one: bit for bit after a
  //    panel replay, to rounding after a checksum correction.
  std::printf("max |repaired - clean| = %.3g\n",
              faulty.c.max_abs_diff(clean.c));

  // 4. Recoverable misuse is an error value, not an exception: a shape
  //    mismatch comes back through the Result<> channel.
  const auto bad = mult.multiply(a, linalg::Matrix(100, 100));
  std::printf("shape mismatch : ok=%s (%s)\n", bad.ok() ? "yes" : "no",
              bad.ok() ? "-" : bad.error().message.c_str());

  // 5. Independent multiplies pipeline across streams of the launcher's
  //    persistent worker pool; results are bit-identical to sequential calls.
  //    Operands are borrowed, so problems may share them.
  const std::vector<abft::Operands> problems = {{&a, &b}, {&b, &a}};
  const auto batch = mult.multiply_batch(problems);
  std::printf("batch          : %zu problems, all clean=%s\n", batch.size(),
              (batch[0].ok() && batch[1].ok() &&
               !batch[0]->error_detected() && !batch[1]->error_detected())
                  ? "yes"
                  : "no");
  return 0;
}
