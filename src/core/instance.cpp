#include "core/instance.hpp"

#include <algorithm>
#include <cassert>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace calisched {

Time Instance::min_release() const noexcept {
  Time best = 0;
  bool first = true;
  for (const Job& job : jobs) {
    if (first || job.release < best) best = job.release;
    first = false;
  }
  return best;
}

Time Instance::max_deadline() const noexcept {
  Time best = 0;
  bool first = true;
  for (const Job& job : jobs) {
    if (first || job.deadline > best) best = job.deadline;
    first = false;
  }
  return best;
}

Time Instance::total_work() const noexcept {
  Time total = 0;
  for (const Job& job : jobs) total += job.proc;
  return total;
}

namespace {

std::string time_range() {
  return "[-" + std::to_string(kMaxTime) + ", " + std::to_string(kMaxTime) +
         "]";
}

}  // namespace

std::optional<std::string> machine_count_error(std::int64_t machines) {
  if (machines < 1) return "machines must be >= 1";
  if (machines > kMaxMachines) {
    return "machines must be <= " + std::to_string(kMaxMachines);
  }
  return std::nullopt;
}

std::optional<std::string> Instance::validate() const {
  if (auto error = machine_count_error(machines)) return error;
  if (T < -kMaxTime || T > kMaxTime) {
    return "calibration length T must lie in " + time_range();
  }
  if (cal.empty()) {
    if (T < 2) return "calibration length T must be >= 2";
  } else {
    if (auto error = cal.validate()) return *error;
    for (std::size_t k = 0; k < cal.size(); ++k) {
      const CalibrationType& type = cal.types[k];
      if (type.length > kMaxTime || type.activation_delay > kMaxTime) {
        return "calibration type " + std::to_string(k) +
               ": length and activation delay must be <= " +
               std::to_string(kMaxTime);
      }
      if (type.cost > kMaxCost) {
        return "calibration type " + std::to_string(k) +
               ": cost must be <= " + std::to_string(kMaxCost);
      }
    }
    // A table that *is* the classic model must agree with T, so the unit
    // algorithms and the explicit one-type table see the same instance.
    if (cal.size() == 1 && cal.types.front().cost == 1 &&
        cal.types.front().activation_delay == 0 &&
        cal.types.front().length != T) {
      return "one-type unit table length " +
             std::to_string(cal.types.front().length) +
             " disagrees with T " + std::to_string(T);
    }
  }
  if (jobs.size() > kMaxJobs) {
    return "job count must be <= " + std::to_string(kMaxJobs);
  }
  return validate_jobs(jobs);
}

std::optional<std::string> Instance::validate_jobs(
    const std::vector<Job>& batch) const {
  // Duplicate ids are found on a sorted copy, so no allocation grows with
  // the largest id. Only when one exists is the first job (in job order)
  // reusing an earlier id located, so errors still come out in job order.
  std::vector<JobId> ids;
  ids.reserve(batch.size());
  for (const Job& job : batch) ids.push_back(job.id);
  std::sort(ids.begin(), ids.end());
  std::size_t first_repeat = batch.size();
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    std::unordered_set<JobId> earlier;
    first_repeat = 0;
    while (earlier.insert(batch[first_repeat].id).second) ++first_repeat;
  }
  const Time max_len = max_calibration_length();
  const auto out_of_range = [](Time t) { return t < -kMaxTime || t > kMaxTime; };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Job& job = batch[i];
    if (job.id < 0) return "job id must be non-negative";
    if (i == first_repeat) return "duplicate job id " + std::to_string(job.id);
    const auto job_error = [&](const std::string& what) {
      return "job " + std::to_string(job.id) + ": " + what;
    };
    if (out_of_range(job.release) || out_of_range(job.deadline)) {
      return job_error("release and deadline must lie in " + time_range());
    }
    if (job.proc < 1) return job_error("processing time must be >= 1");
    if (job.proc > max_len) {
      return job_error(cal.empty()
                           ? "processing time must be <= the calibration "
                             "length T"
                           : "processing time must fit the longest "
                             "calibration type");
    }
    if (job.deadline < job.release + job.proc) {
      return job_error("window too small for p_j");
    }
  }
  return std::nullopt;
}

const Job& Instance::job_by_id(JobId id) const {
  const auto it = std::find_if(jobs.begin(), jobs.end(),
                               [id](const Job& job) { return job.id == id; });
  assert(it != jobs.end());
  return *it;
}

WindowSplit split_by_window(const Instance& instance) {
  WindowSplit split;
  split.long_jobs.machines = instance.machines;
  split.long_jobs.T = instance.T;
  split.long_jobs.cal = instance.cal;
  split.short_jobs.machines = instance.machines;
  split.short_jobs.T = instance.T;
  split.short_jobs.cal = instance.cal;
  for (const Job& job : instance.jobs) {
    (job.is_long(instance.T) ? split.long_jobs : split.short_jobs)
        .jobs.push_back(job);
  }
  return split;
}

void write_instance(std::ostream& out, const Instance& instance) {
  out << "machines " << instance.machines << '\n';
  out << "T " << instance.T << '\n';
  for (const CalibrationType& type : instance.cal.types) {
    out << "caltype " << type.length << ' ' << type.cost << ' '
        << type.activation_delay << '\n';
  }
  for (const Job& job : instance.jobs) {
    out << "job " << job.id << ' ' << job.release << ' ' << job.deadline << ' '
        << job.proc << '\n';
  }
}

Instance read_instance(std::istream& in) {
  Instance instance;
  std::string line;
  int line_number = 0;
  auto fail = [&](const std::string& what) {
    throw std::runtime_error("instance parse error on line " +
                             std::to_string(line_number) + ": " + what);
  };
  auto reject_trailing = [&](std::istringstream& fields) {
    if (std::string extra; fields >> extra) fail("unexpected field '" + extra + "'");
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (keyword == "machines") {
      if (!(fields >> instance.machines)) fail("expected machine count");
    } else if (keyword == "T") {
      if (!(fields >> instance.T)) fail("expected calibration length");
    } else if (keyword == "caltype") {
      CalibrationType type;
      if (!(fields >> type.length >> type.cost >> type.activation_delay)) {
        fail("expected: caltype <length> <cost> <activation_delay>");
      }
      instance.cal.types.push_back(type);
    } else if (keyword == "job") {
      Job job;
      if (!(fields >> job.id >> job.release >> job.deadline >> job.proc)) {
        fail("expected: job <id> <release> <deadline> <proc>");
      }
      instance.jobs.push_back(job);
    } else {
      fail("unknown keyword '" + keyword + "'");
    }
    reject_trailing(fields);
  }
  if (auto error = instance.validate()) fail(*error);
  return instance;
}

}  // namespace calisched
