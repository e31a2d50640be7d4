#include "core/schedule_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace calisched {

void write_schedule(std::ostream& out, const Schedule& schedule) {
  out << "machines " << schedule.machines << '\n';
  out << "T " << schedule.T << '\n';
  out << "denominator " << schedule.time_denominator << '\n';
  out << "speed " << schedule.speed << '\n';
  for (const CalibrationType& type : schedule.cal.types) {
    out << "caltype " << type.length << ' ' << type.cost << ' '
        << type.activation_delay << '\n';
  }
  // The type id is emitted only for explicit tables; unit-model schedules
  // keep the original two-field format byte for byte.
  for (const Calibration& cal : schedule.calibrations) {
    out << "calibration " << cal.machine << ' ' << cal.start;
    if (!schedule.cal.empty()) out << ' ' << cal.type;
    out << '\n';
  }
  for (const ScheduledJob& sj : schedule.jobs) {
    out << "job " << sj.job << ' ' << sj.machine << ' ' << sj.start << '\n';
  }
}

Schedule read_schedule(std::istream& in) {
  Schedule schedule;
  std::string line;
  int line_number = 0;
  auto fail = [&](const std::string& what) {
    throw std::runtime_error("schedule parse error on line " +
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
      if (!(fields >> schedule.machines)) fail("expected machine count");
    } else if (keyword == "T") {
      if (!(fields >> schedule.T)) fail("expected calibration length");
    } else if (keyword == "denominator") {
      if (!(fields >> schedule.time_denominator)) fail("expected denominator");
    } else if (keyword == "speed") {
      if (!(fields >> schedule.speed)) fail("expected speed");
    } else if (keyword == "caltype") {
      CalibrationType type;
      if (!(fields >> type.length >> type.cost >> type.activation_delay)) {
        fail("expected: caltype <length> <cost> <activation_delay>");
      }
      schedule.cal.types.push_back(type);
    } else if (keyword == "calibration") {
      Calibration cal;
      if (!(fields >> cal.machine >> cal.start)) {
        fail("expected: calibration <machine> <start> [type]");
      }
      // Optional third field; absent means type 0.
      if (std::string type; fields >> type) {
        std::istringstream type_field(type);
        if (!(type_field >> cal.type) || !type_field.eof()) {
          fail("unexpected field '" + type + "'");
        }
      }
      schedule.calibrations.push_back(cal);
    } else if (keyword == "job") {
      ScheduledJob sj;
      if (!(fields >> sj.job >> sj.machine >> sj.start)) {
        fail("expected: job <id> <machine> <start>");
      }
      schedule.jobs.push_back(sj);
    } else {
      fail("unknown keyword '" + keyword + "'");
    }
    reject_trailing(fields);
  }
  if (schedule.machines < 0 || schedule.time_denominator < 1 ||
      schedule.speed < 1) {
    fail("invalid schedule header values");
  }
  return schedule;
}

}  // namespace calisched
