#include "verify/verify.hpp"

#include <algorithm>
#include <compare>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

namespace calisched {
namespace {

void add(VerifyResult& result, Violation::Kind kind, const std::string& message) {
  result.violations.push_back({kind, message});
}

std::string job_tag(JobId id) { return "job " + std::to_string(id); }

/// Instance jobs by id: (id, job) pairs sorted by id. With duplicate ids
/// the last job in instance order answers for the id.
class JobIndex {
 public:
  static constexpr std::size_t kMissing = static_cast<std::size_t>(-1);

  explicit JobIndex(const Instance& instance) {
    entries_.reserve(instance.size());
    for (const Job& job : instance.jobs) entries_.emplace_back(job.id, &job);
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry& a, const Entry& b) { return a.first < b.first; });
  }

  /// Position of the entry that answers for `id`, or kMissing.
  [[nodiscard]] std::size_t find(JobId id) const {
    const auto after = std::upper_bound(
        entries_.begin(), entries_.end(), id,
        [](JobId key, const Entry& entry) { return key < entry.first; });
    if (after == entries_.begin() || std::prev(after)->first != id) return kMissing;
    return static_cast<std::size_t>(std::prev(after) - entries_.begin());
  }
  [[nodiscard]] const Job& job(std::size_t position) const {
    return *entries_[position].second;
  }

 private:
  using Entry = std::pair<JobId, const Job*>;
  std::vector<Entry> entries_;
};

/// Reports every instance job not scheduled exactly once; `times` counts
/// the schedule's placements per JobIndex position (one per instance job).
void check_multiplicity(VerifyResult& result, const Instance& instance,
                        const JobIndex& by_id, const std::vector<int>& times) {
  for (const Job& job : instance.jobs) {
    const int count = times[by_id.find(job.id)];
    if (count != 1) {
      add(result, Violation::Kind::kStructural,
          job_tag(job.id) + " scheduled " + std::to_string(count) +
              " times (expected exactly 1)");
    }
  }
}

/// A half-open span of ticks on one machine.
struct MachineSpan {
  int machine;
  Time start;
  Time end;
  auto operator<=>(const MachineSpan&) const = default;
};

/// Reports each overlap between consecutive spans of one machine, machines
/// ascending and spans by start; reports via `what`. Sorts `spans`.
void check_disjoint(VerifyResult& result, Violation::Kind kind,
                    std::vector<MachineSpan>& spans, const char* what) {
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    const MachineSpan& before = spans[i - 1];
    const MachineSpan& span = spans[i];
    if (span.machine == before.machine && span.start < before.end) {
      std::ostringstream msg;
      msg << what << " overlap on machine " << span.machine << ": ["
          << before.start << ", " << before.end << ") and [" << span.start
          << ", " << span.end << ") ticks";
      add(result, kind, msg.str());
    }
  }
}

}  // namespace

std::string VerifyResult::to_string() const {
  if (ok()) return "ok";
  std::ostringstream out;
  out << violations.size() << " violation(s):\n";
  for (const Violation& violation : violations) {
    out << "  - " << violation.message << '\n';
  }
  return out.str();
}

VerifyResult verify_ise(const Instance& instance, const Schedule& schedule,
                        bool require_tise, CalibrationPolicy policy) {
  VerifyResult result;
  const std::int64_t D = schedule.time_denominator;
  const std::int64_t s = schedule.speed;
  if (D < 1 || s < 1) {
    add(result, Violation::Kind::kArithmetic,
        "time_denominator and speed must be >= 1");
    return result;
  }
  if (schedule.T != instance.T) {
    add(result, Violation::Kind::kStructural,
        "schedule T does not match instance T");
  }
  const CalibrationModel model = instance.effective_model();
  if (schedule.effective_model() != model) {
    add(result, Violation::Kind::kStructural,
        "schedule calibration-type table does not match the instance's");
  }
  const auto type_count = static_cast<int>(model.size());
  const auto type_ok = [&](const Calibration& cal) {
    return cal.type >= 0 && cal.type < type_count;
  };
  // Per-calibration windows in ticks, from the *instance's* table (the
  // schedule's table was just checked to agree).
  const auto type_of = [&](const Calibration& cal) -> const CalibrationType& {
    return model.types[static_cast<std::size_t>(cal.type)];
  };
  const auto avail_start = [&](const Calibration& cal) {
    return cal.start + type_of(cal).activation_delay * D;
  };
  const auto avail_end = [&](const Calibration& cal) {
    return cal.start + type_of(cal).span() * D;
  };

  // --- structural checks on machines and job multiplicity -----------------
  const JobIndex by_id(instance);
  std::vector<int> times_scheduled(instance.size(), 0);
  for (const ScheduledJob& sj : schedule.jobs) {
    if (sj.machine < 0 || sj.machine >= schedule.machines) {
      add(result, Violation::Kind::kStructural,
          job_tag(sj.job) + ": machine index " + std::to_string(sj.machine) +
              " out of range [0, " + std::to_string(schedule.machines) + ")");
    }
    const std::size_t position = by_id.find(sj.job);
    if (position == JobIndex::kMissing) {
      add(result, Violation::Kind::kStructural,
          job_tag(sj.job) + " is not in the instance");
      continue;
    }
    ++times_scheduled[position];
  }
  check_multiplicity(result, instance, by_id, times_scheduled);
  for (const Calibration& cal : schedule.calibrations) {
    if (cal.machine < 0 || cal.machine >= schedule.machines) {
      add(result, Violation::Kind::kStructural,
          "calibration at tick " + std::to_string(cal.start) +
              ": machine index out of range");
    }
    if (!type_ok(cal)) {
      add(result, Violation::Kind::kStructural,
          "calibration at tick " + std::to_string(cal.start) + ": type id " +
              std::to_string(cal.type) + " out of range [0, " +
              std::to_string(type_count) + ")");
    }
  }
  result.calibrations = schedule.calibrations.size();
  for (const Calibration& cal : schedule.calibrations) {
    if (type_ok(cal)) result.total_cost += type_of(cal).cost;
  }
  if (std::any_of(schedule.calibrations.begin(), schedule.calibrations.end(),
                  [&](const Calibration& cal) { return !type_ok(cal); })) {
    return result;  // windows below would index out of the table
  }

  // --- per-job checks: arithmetic, window, calibration containment --------
  // Calibrations by machine, each machine's in schedule order, so the first
  // cover found is the first one in the schedule.
  std::vector<std::pair<int, std::size_t>> calibrations_by_machine;
  calibrations_by_machine.reserve(schedule.calibrations.size());
  for (std::size_t i = 0; i < schedule.calibrations.size(); ++i) {
    calibrations_by_machine.emplace_back(schedule.calibrations[i].machine, i);
  }
  std::sort(calibrations_by_machine.begin(), calibrations_by_machine.end());
  for (const ScheduledJob& sj : schedule.jobs) {
    const std::size_t position = by_id.find(sj.job);
    if (position == JobIndex::kMissing) continue;
    const Job& job = by_id.job(position);
    if ((job.proc * D) % s != 0) {
      add(result, Violation::Kind::kArithmetic,
          job_tag(job.id) + ": p*D=" + std::to_string(job.proc * D) +
              " not divisible by speed " + std::to_string(s));
      continue;
    }
    const Time duration = (job.proc * D) / s;
    const Time start = sj.start;
    const Time finish = start + duration;
    if (start < job.release * D || finish > job.deadline * D) {
      std::ostringstream msg;
      msg << job_tag(job.id) << " runs [" << start << ", " << finish
          << ") ticks outside window [" << job.release * D << ", "
          << job.deadline * D << ")";
      add(result, Violation::Kind::kWindow, msg.str());
    }
    // Find a calibration whose availability window covers the run.
    const Calibration* cover = nullptr;
    for (auto it = std::lower_bound(calibrations_by_machine.begin(),
                                    calibrations_by_machine.end(),
                                    std::pair<int, std::size_t>{sj.machine, 0});
         it != calibrations_by_machine.end() && it->first == sj.machine; ++it) {
      const Calibration& cal = schedule.calibrations[it->second];
      if (avail_start(cal) <= start && finish <= avail_end(cal)) {
        cover = &cal;
        break;
      }
    }
    if (cover == nullptr) {
      add(result, Violation::Kind::kCalibrationCover,
          job_tag(job.id) + " at tick " + std::to_string(start) +
              " on machine " + std::to_string(sj.machine) +
              " is not contained in any calibration's availability window");
    } else if (require_tise) {
      // TISE restriction: the availability window nests in the job window.
      if (avail_start(*cover) < job.release * D ||
          avail_end(*cover) > job.deadline * D) {
        std::ostringstream msg;
        msg << job_tag(job.id) << ": containing calibration ["
            << avail_start(*cover) << ", " << avail_end(*cover)
            << ") ticks is not inside the job window [" << job.release * D
            << ", " << job.deadline * D << ")";
        add(result, Violation::Kind::kTise, msg.str());
      }
    }
  }

  // --- per-machine exclusivity ---------------------------------------------
  std::vector<MachineSpan> spans;
  spans.reserve(std::max(schedule.jobs.size(), schedule.calibrations.size()));
  for (const ScheduledJob& sj : schedule.jobs) {
    const std::size_t position = by_id.find(sj.job);
    if (position == JobIndex::kMissing) continue;
    const Job& job = by_id.job(position);
    if ((job.proc * D) % s != 0) continue;  // already reported
    spans.push_back({sj.machine, sj.start, sj.start + (job.proc * D) / s});
  }
  check_disjoint(result, Violation::Kind::kJobOverlap, spans, "jobs");
  if (policy == CalibrationPolicy::kStrict) {
    // Occupancy spans: the activation delay occupies the machine too.
    spans.clear();
    for (const Calibration& cal : schedule.calibrations) {
      spans.push_back({cal.machine, cal.start, avail_end(cal)});
    }
    check_disjoint(result, Violation::Kind::kCalibrationOverlap, spans,
                   "calibrations");
  }
  return result;
}

VerifyResult verify_tise(const Instance& instance, const Schedule& schedule) {
  return verify_ise(instance, schedule, /*require_tise=*/true);
}

VerifyResult verify_mm(const Instance& instance, const MMSchedule& schedule) {
  VerifyResult result;
  const std::int64_t s = schedule.speed;
  if (s < 1) {
    add(result, Violation::Kind::kArithmetic, "MM speed must be >= 1");
    return result;
  }
  const JobIndex by_id(instance);
  std::vector<int> times_scheduled(instance.size(), 0);
  std::vector<MachineSpan> spans;
  spans.reserve(schedule.jobs.size());
  for (const ScheduledJob& sj : schedule.jobs) {
    if (sj.machine < 0 || sj.machine >= schedule.machines) {
      add(result, Violation::Kind::kStructural,
          job_tag(sj.job) + ": machine index out of range");
    }
    const std::size_t position = by_id.find(sj.job);
    if (position == JobIndex::kMissing) {
      add(result, Violation::Kind::kStructural,
          job_tag(sj.job) + " is not in the instance");
      continue;
    }
    ++times_scheduled[position];
    const Job& job = by_id.job(position);
    // Starts are in 1/s time units; the job occupies proc ticks.
    if (sj.start < job.release * s || sj.start + job.proc > job.deadline * s) {
      std::ostringstream msg;
      msg << job_tag(job.id) << " runs [" << sj.start << ", "
          << sj.start + job.proc << ") ticks outside window ["
          << job.release * s << ", " << job.deadline * s << ")";
      add(result, Violation::Kind::kWindow, msg.str());
    }
    spans.push_back({sj.machine, sj.start, sj.start + job.proc});
  }
  check_multiplicity(result, instance, by_id, times_scheduled);
  check_disjoint(result, Violation::Kind::kJobOverlap, spans, "jobs");
  return result;
}

}  // namespace calisched
