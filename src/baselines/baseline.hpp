// Baseline ISE algorithms the experiments compare against.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "runtime/limits.hpp"
#include "runtime/status.hpp"

namespace calisched {

struct BaselineResult {
  bool feasible = false;
  /// Structured outcome: kInfeasible when the greedy gave up (honest
  /// failure), kDeadlineExceeded / kCancelled when `limits` fired.
  SolveStatus status = SolveStatus::kOk;
  Schedule schedule;  ///< verifier-clean ISE schedule when feasible
  std::string error;
};

/// Interface for simple reference algorithms. Unlike the paper's pipeline,
/// baselines may fail on feasible instances; they report it honestly.
/// Implementations poll `limits` at least once per job placed.
class IseBaseline {
 public:
  virtual ~IseBaseline() = default;
  [[nodiscard]] virtual BaselineResult solve(const Instance& instance,
                                             const RunLimits& limits) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Unlimited run (legacy signature; forwards RunLimits::none()).
  [[nodiscard]] BaselineResult solve(const Instance& instance) const {
    return solve(instance, RunLimits::none());
  }
};

/// One calibration per job: job j runs at r_j inside its own calibration
/// [r_j, r_j + T); calibrations are interval-colored onto machines. Always
/// feasible (with enough machines); uses exactly n calibrations. The
/// "no sharing" upper baseline.
class PerJobCalibration final : public IseBaseline {
 public:
  using IseBaseline::solve;
  [[nodiscard]] BaselineResult solve(const Instance& instance,
                                     const RunLimits& limits) const override;
  [[nodiscard]] std::string name() const override { return "per-job"; }
};

/// Keep all m machines calibrated back-to-back over the whole horizon and
/// run EDF inside the resulting grid (jobs may not cross grid boundaries).
/// The "always calibrated" upper baseline: ~ m * ceil(span / T)
/// calibrations; may fail on tight instances (reported, not hidden).
class SaturateCalibration final : public IseBaseline {
 public:
  using IseBaseline::solve;
  [[nodiscard]] BaselineResult solve(const Instance& instance,
                                     const RunLimits& limits) const override;
  [[nodiscard]] std::string name() const override { return "saturate"; }
};

/// Reconstruction of the lazy-binning greedy of Bender, Bunde, Leung,
/// McCauley, Phillips (SPAA'13) for *unit* jobs: repeatedly take the most
/// urgent unscheduled job; if an already-open calibration has a free slot
/// inside the job's window, use the earliest such slot; otherwise open a
/// new calibration as late as possible (at d_j - 1). The SPAA'13 text was
/// not available offline; this follows the published summary (optimal when
/// a 1-machine schedule exists, 2-approximation on m machines) in spirit,
/// and the tests only rely on feasibility plus measured quality.
class BenderUnitLazyBinning final : public IseBaseline {
 public:
  using IseBaseline::solve;
  [[nodiscard]] BaselineResult solve(const Instance& instance,
                                     const RunLimits& limits) const override;
  [[nodiscard]] std::string name() const override { return "bender-lazy"; }
};

}  // namespace calisched
