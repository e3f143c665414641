#include "abft/chain.hpp"

#include "core/require.hpp"

namespace aabft::abft {

using linalg::Matrix;

ChainResult multiply_chain(gpusim::Launcher& launcher,
                           const std::vector<const Matrix*>& chain,
                           const AabftConfig& config) {
  AABFT_REQUIRE(!chain.empty(), "a product chain needs at least one matrix");
  for (const Matrix* m : chain)
    AABFT_REQUIRE(m != nullptr && !m->empty(), "chain matrices must be set");
  for (std::size_t i = 0; i + 1 < chain.size(); ++i)
    AABFT_REQUIRE(chain[i]->cols() == chain[i + 1]->rows(),
                  "chain inner dimensions must agree");

  AabftMultiplier mult(launcher, config);

  ChainResult result;
  result.c = *chain.front();
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const AabftResult link = mult.multiply_padded(result.c, *chain[i]);
    ++result.multiplies;
    if (link.error_detected()) ++result.faults_detected;
    result.panel_recomputes += link.panel_recomputes;
    result.corrections += link.corrections.size();
    result.recomputations += link.recomputations;
    if (link.uncorrectable || !link.recheck_clean) result.ok = false;
    result.c = link.c;
  }
  return result;
}

}  // namespace aabft::abft
