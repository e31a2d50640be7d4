// Per-type trimmed calibration grids (the P8 property sweep's reference
// for the generalized calibration model; see oracles.hpp).
#include <algorithm>

#include "core/calibration_points.hpp"
#include "oracles.hpp"

namespace calisched {

std::vector<std::vector<Time>> typed_tise_calibration_points(
    const Instance& instance) {
  const std::vector<Time> canonical = canonical_calibration_points(instance);
  const CalibrationModel model = instance.effective_model();
  std::vector<std::vector<Time>> typed(model.size());
  for (std::size_t k = 0; k < model.size(); ++k) {
    const CalibrationType& type = model.types[k];
    typed[k] = canonical;
    std::erase_if(typed[k], [&](Time t) {
      return std::none_of(instance.jobs.begin(), instance.jobs.end(),
                          [&](const Job& job) {
                            return job.release <= t + type.activation_delay &&
                                   t + type.span() <= job.deadline;
                          });
    });
  }
  return typed;
}

}  // namespace calisched
