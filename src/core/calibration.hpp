// Calibration types (Angel et al.): a table of calibration types, where an
// empty table means the unit model of length T. See DESIGN.md §12.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/arith.hpp"

namespace calisched {

/// One calibration type (Angel et al.): occupies a machine for
/// `activation_delay + length` time units, of which only the trailing
/// `length` can run jobs, and costs `cost`.
struct CalibrationType {
  Time length = 2;
  std::int64_t cost = 1;
  Time activation_delay = 0;

  /// Machine occupancy of one calibration: warm-up plus availability.
  [[nodiscard]] constexpr Time span() const noexcept {
    return activation_delay + length;
  }

  friend constexpr bool operator==(const CalibrationType&,
                                   const CalibrationType&) noexcept = default;
};

/// Calibration-type table; the classic model is the one-type table unit(T).
struct CalibrationModel {
  std::vector<CalibrationType> types;

  [[nodiscard]] static CalibrationModel unit(Time T) {
    return CalibrationModel{{CalibrationType{T, 1, 0}}};
  }

  [[nodiscard]] bool empty() const noexcept { return types.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return types.size(); }

  /// True when the table is exactly unit(T).
  [[nodiscard]] bool is_unit(Time T) const noexcept {
    return types.size() == 1 && types.front() == CalibrationType{T, 1, 0};
  }

  /// Longest availability window (0 for an empty table).
  [[nodiscard]] Time max_length() const noexcept {
    Time best = 0;
    for (const CalibrationType& type : types) best = std::max(best, type.length);
    return best;
  }

  /// Longest machine occupancy (0 for an empty table).
  [[nodiscard]] Time max_span() const noexcept {
    Time best = 0;
    for (const CalibrationType& type : types) best = std::max(best, type.span());
    return best;
  }

  /// Cheapest type cost (1, the unit cost, for an empty table).
  [[nodiscard]] std::int64_t min_cost() const noexcept {
    if (types.empty()) return 1;
    std::int64_t best = types.front().cost;
    for (const CalibrationType& type : types) best = std::min(best, type.cost);
    return best;
  }

  /// Checks every type record; nullopt when the table is well-formed. An
  /// empty table is valid (it means the unit model).
  [[nodiscard]] std::optional<std::string> validate() const {
    for (std::size_t k = 0; k < types.size(); ++k) {
      const CalibrationType& type = types[k];
      const std::string where = "calibration type " + std::to_string(k);
      if (type.length < 1) return where + ": length must be >= 1";
      if (type.cost < 1) return where + ": cost must be >= 1";
      if (type.activation_delay < 0) {
        return where + ": activation delay must be >= 0";
      }
    }
    return std::nullopt;
  }

  friend bool operator==(const CalibrationModel&,
                         const CalibrationModel&) = default;
};

}  // namespace calisched
