// ISE problem instance: jobs + machine count + calibration model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/job.hpp"

namespace calisched {

// Admission bounds. Instance::validate() rejects anything outside them,
// and every front end admits instances through it (NDJSON solve and
// subscribe/arrive, instance files, batch), so every quantity the solvers
// derive fits its integer type:
//   * machines: the long-window pipeline allots 18m machines (its rounding
//     9m) as `int`, and 18 * 2^20 < 2^25.
//   * jobs: the Lemma-3 grid points r + k*T (k <= n) stay below
//     2^40 + 2^20 * 2^40 < 2^61, and n calibrations of cost <= kMaxCost
//     sum to at most 2^60.
//   * times (|r|, |d|, and p, T, every type length and activation delay):
//     d - r, 2T, 4T and a type's span stay below 2^42, and times scaled
//     by the long-window speed 36 (Lemma 13's time denominator) below
//     2^46.
//   * cost per calibration type: see jobs.
inline constexpr std::int64_t kMaxMachines = std::int64_t{1} << 20;
inline constexpr std::size_t kMaxJobs = std::size_t{1} << 20;
inline constexpr Time kMaxTime = Time{1} << 40;
inline constexpr std::int64_t kMaxCost = std::int64_t{1} << 40;

/// The machine-count rule of Instance::validate(), for readers that must
/// check a wider integer before narrowing it to `int`.
[[nodiscard]] std::optional<std::string> machine_count_error(
    std::int64_t machines);

/// A complete ISE instance (Bender et al. / Fineman-Sheridan formulation):
/// `machines` identical machines, calibration length `T >= 2`, and jobs with
/// p_j <= T, d_j >= r_j + p_j.
///
/// The generalized cost model (Angel et al.) replaces the single length T
/// with a table of calibration types. An empty `cal.types` means the unit
/// model of length T — the degenerate one-type table — so classic call
/// sites that only ever touch `T` keep their exact semantics; an explicit
/// table makes this a cost-model instance (see is_unit_model()), and jobs
/// are then constrained by the longest type length instead of T.
struct Instance {
  std::vector<Job> jobs;
  int machines = 1;
  Time T = 2;
  /// Calibration-type table; empty means the implicit unit model unit(T).
  CalibrationModel cal;

  [[nodiscard]] std::size_t size() const noexcept { return jobs.size(); }
  [[nodiscard]] bool empty() const noexcept { return jobs.empty(); }

  /// The table with the implicit unit model resolved: unit(T) when `cal`
  /// is empty, `cal` itself otherwise.
  [[nodiscard]] CalibrationModel effective_model() const {
    return cal.empty() ? CalibrationModel::unit(T) : cal;
  }

  /// True when the effective model is the classic one: a single type of
  /// length T, cost 1, and no activation delay. Every algorithm predating
  /// the cost model requires this (the registry gates on it).
  [[nodiscard]] bool is_unit_model() const noexcept {
    return cal.empty() || cal.is_unit(T);
  }

  /// Longest usable calibration window: T under the unit model, the
  /// longest type length otherwise. Upper bound for every p_j.
  [[nodiscard]] Time max_calibration_length() const noexcept {
    return cal.empty() ? T : cal.max_length();
  }

  /// Earliest release over all jobs (0 when empty).
  [[nodiscard]] Time min_release() const noexcept;
  /// Latest deadline over all jobs (0 when empty).
  [[nodiscard]] Time max_deadline() const noexcept;
  /// Total processing time of all jobs.
  [[nodiscard]] Time total_work() const noexcept;

  /// Checks the structural invariants of the problem statement and the
  /// admission bounds above; returns an error description, or nullopt if
  /// the instance is well-formed.
  [[nodiscard]] std::optional<std::string> validate() const;

  /// The per-job half of validate(), for `batch` under this instance's T
  /// and table (`jobs` is ignored): ids, time bounds, processing times,
  /// windows, and duplicate ids within `batch`. The first error in job
  /// order wins.
  [[nodiscard]] std::optional<std::string> validate_jobs(
      const std::vector<Job>& batch) const;

  /// Finds a job by id; precondition: the id exists.
  [[nodiscard]] const Job& job_by_id(JobId id) const;
};

/// The Definition-1 split. Both halves keep the parent's machine count and
/// T; the paper schedules them on *disjoint* machine pools.
struct WindowSplit {
  Instance long_jobs;
  Instance short_jobs;
};
[[nodiscard]] WindowSplit split_by_window(const Instance& instance);

/// Serialises to a small line-oriented text format:
///   machines <m>
///   T <T>
///   caltype <length> <cost> <activation_delay>   (one per explicit type)
///   job <id> <release> <deadline> <proc>
/// `caltype` lines appear only for explicit tables; unit-model instances
/// keep the original single-T format byte for byte.
void write_instance(std::ostream& out, const Instance& instance);

/// Parses the format produced by write_instance; throws std::runtime_error
/// with a line number on malformed input.
[[nodiscard]] Instance read_instance(std::istream& in);

}  // namespace calisched
