#include "service/protocol.hpp"

#include <exception>
#include <limits>
#include <utility>

namespace calisched {

namespace {

/// Integer field access with range/shape errors naming the field.
bool read_int(const JsonValue& object, std::string_view key,
              std::int64_t* out, std::string* error) {
  const JsonValue* value = object.find(key);
  if (value == nullptr || !value->is_int()) {
    *error = "field '" + std::string(key) + "' must be an integer";
    return false;
  }
  *out = value->as_int();
  return true;
}

bool parse_jobs(const JsonValue& value, std::vector<Job>* out,
                std::string* error) {
  if (!value.is_array()) {
    *error = "field 'jobs' must be an array";
    return false;
  }
  out->clear();
  out->reserve(value.as_array().size());
  for (const JsonValue& entry : value.as_array()) {
    if (!entry.is_array() || entry.as_array().size() != 4) {
      *error = "each job must be [id, release, deadline, proc]";
      return false;
    }
    Job job;
    const JsonValue::Array& fields = entry.as_array();
    for (const JsonValue& field : fields) {
      if (!field.is_int()) {
        *error = "each job must be [id, release, deadline, proc] (integers)";
        return false;
      }
    }
    const std::int64_t id = fields[0].as_int();
    if (id < std::numeric_limits<JobId>::min() ||
        id > std::numeric_limits<JobId>::max()) {
      *error = "field 'jobs': job id " + std::to_string(id) +
               " does not fit a 32-bit integer";
      return false;
    }
    job.id = static_cast<JobId>(id);
    job.release = fields[1].as_int();
    job.deadline = fields[2].as_int();
    job.proc = fields[3].as_int();
    out->push_back(job);
  }
  return true;
}

bool parse_caltypes(const JsonValue& value, CalibrationModel* out,
                    std::string* error) {
  if (!value.is_array()) {
    *error = "field 'caltypes' must be an array";
    return false;
  }
  out->types.clear();
  for (const JsonValue& entry : value.as_array()) {
    if (!entry.is_array() || entry.as_array().size() != 3 ||
        !entry.as_array()[0].is_int() || !entry.as_array()[1].is_int() ||
        !entry.as_array()[2].is_int()) {
      *error = "each caltype must be [length, cost, delay] (integers)";
      return false;
    }
    const JsonValue::Array& fields = entry.as_array();
    out->types.push_back(CalibrationType{fields[0].as_int(), fields[1].as_int(),
                                         fields[2].as_int()});
  }
  return true;
}

/// Reads the machines, T and caltypes fields of `object` into `out`. The
/// machine count is range-checked before it is narrowed to `int`; the
/// other bounds are Instance::validate()'s.
bool parse_park(const JsonValue& object, Instance* out, std::string* error) {
  std::int64_t machines = 0;
  if (!read_int(object, "machines", &machines, error)) return false;
  if (!read_int(object, "T", &out->T, error)) return false;
  if (const auto invalid = machine_count_error(machines)) {
    *error = "invalid instance: " + *invalid;
    return false;
  }
  out->machines = static_cast<int>(machines);
  out->cal.types.clear();
  if (const JsonValue* caltypes = object.find("caltypes")) {
    if (!parse_caltypes(*caltypes, &out->cal, error)) return false;
  }
  return true;
}

bool validate_instance(const Instance& instance, std::string* error) {
  if (const auto invalid = instance.validate()) {
    *error = "invalid instance: " + *invalid;
    return false;
  }
  return true;
}

bool parse_instance(const JsonValue& value, Instance* out, std::string* error) {
  if (!value.is_object()) {
    *error = "field 'instance' must be an object";
    return false;
  }
  if (!parse_park(value, out, error)) return false;
  const JsonValue* jobs = value.find("jobs");
  if (jobs == nullptr) {
    *error = "field 'instance.jobs' must be an array";
    return false;
  }
  return parse_jobs(*jobs, &out->jobs, error) &&
         validate_instance(*out, error);
}

}  // namespace

ParsedRequest parse_request(std::string_view line) {
  ParsedRequest parsed;
  JsonValue document;
  try {
    document = JsonValue::parse(line);
  } catch (const std::exception& error) {
    parsed.error = std::string("malformed JSON: ") + error.what();
    return parsed;
  }
  if (!document.is_object()) {
    parsed.error = "request must be a JSON object";
    return parsed;
  }
  if (const JsonValue* id = document.find("id")) parsed.id = *id;

  const JsonValue* type = document.find("type");
  if (type == nullptr || !type->is_string()) {
    parsed.error = "field 'type' must be a string";
    return parsed;
  }
  const std::string& name = type->as_string();
  ServiceRequest& request = parsed.request;
  request.id = parsed.id;
  if (name == "stats") {
    request.type = RequestType::kStats;
  } else if (name == "ping") {
    request.type = RequestType::kPing;
  } else if (name == "pause") {
    request.type = RequestType::kPause;
  } else if (name == "resume") {
    request.type = RequestType::kResume;
  } else if (name == "shutdown") {
    request.type = RequestType::kShutdown;
  } else if (name == "solve") {
    request.type = RequestType::kSolve;
    if (const JsonValue* algo = document.find("algo")) {
      if (!algo->is_string()) {
        parsed.error = "field 'algo' must be a string";
        return parsed;
      }
      request.algorithm = algo->as_string();
    }
    const JsonValue* instance = document.find("instance");
    if (instance == nullptr) {
      parsed.error = "solve request needs an 'instance' object";
      return parsed;
    }
    if (!parse_instance(*instance, &request.instance, &parsed.error)) {
      return parsed;
    }
    if (const JsonValue* timeout = document.find("timeout_ms")) {
      if (!timeout->is_int() || timeout->as_int() < 0) {
        parsed.error = "field 'timeout_ms' must be a non-negative integer";
        return parsed;
      }
      request.timeout_ms = timeout->as_int();
    }
    if (const JsonValue* budget = document.find("node_budget")) {
      if (!budget->is_int() || budget->as_int() < 0) {
        parsed.error = "field 'node_budget' must be a non-negative integer";
        return parsed;
      }
      request.node_budget = budget->as_int();
    }
    if (const JsonValue* schedule = document.find("schedule")) {
      if (!schedule->is_bool()) {
        parsed.error = "field 'schedule' must be a boolean";
        return parsed;
      }
      request.want_schedule = schedule->as_bool();
    }
  } else if (name == "subscribe") {
    request.type = RequestType::kSubscribe;
    request.algorithm = "online-edf";
    if (const JsonValue* algo = document.find("algo")) {
      if (!algo->is_string()) {
        parsed.error = "field 'algo' must be a string";
        return parsed;
      }
      request.algorithm = algo->as_string();
    }
    // The session's park and table: a job-free instance, admitted by the
    // same check as a solve's.
    if (!parse_park(document, &request.instance, &parsed.error) ||
        !validate_instance(request.instance, &parsed.error)) {
      return parsed;
    }
  } else if (name == "arrive") {
    request.type = RequestType::kArrive;
    if (!read_int(document, "time", &request.arrive_time, &parsed.error)) {
      return parsed;
    }
    if (request.arrive_time < 0) {
      parsed.error = "field 'time' must be non-negative";
      return parsed;
    }
    if (const JsonValue* jobs = document.find("jobs")) {
      if (!parse_jobs(*jobs, &request.arrivals, &parsed.error)) return parsed;
    }
  } else if (name == "finalize") {
    request.type = RequestType::kFinalize;
    if (const JsonValue* schedule = document.find("schedule")) {
      if (!schedule->is_bool()) {
        parsed.error = "field 'schedule' must be a boolean";
        return parsed;
      }
      request.want_schedule = schedule->as_bool();
    }
  } else {
    parsed.error =
        "unknown request type '" + name +
        "' (solve|stats|ping|pause|resume|shutdown|subscribe|arrive|finalize)";
    return parsed;
  }
  parsed.ok = true;
  return parsed;
}

JsonValue instance_to_json(const Instance& instance) {
  JsonValue::Object object;
  object.emplace_back("machines", JsonValue(instance.machines));
  object.emplace_back("T", JsonValue(instance.T));
  JsonValue::Array jobs;
  jobs.reserve(instance.jobs.size());
  for (const Job& job : instance.jobs) {
    JsonValue::Array fields;
    fields.reserve(4);
    fields.emplace_back(static_cast<std::int64_t>(job.id));
    fields.emplace_back(job.release);
    fields.emplace_back(job.deadline);
    fields.emplace_back(job.proc);
    jobs.emplace_back(std::move(fields));
  }
  object.emplace_back("jobs", JsonValue(std::move(jobs)));
  if (!instance.cal.empty()) {
    JsonValue::Array caltypes;
    caltypes.reserve(instance.cal.size());
    for (const CalibrationType& type : instance.cal.types) {
      JsonValue::Array fields;
      fields.reserve(3);
      fields.emplace_back(type.length);
      fields.emplace_back(type.cost);
      fields.emplace_back(type.activation_delay);
      caltypes.emplace_back(std::move(fields));
    }
    object.emplace_back("caltypes", JsonValue(std::move(caltypes)));
  }
  return JsonValue(std::move(object));
}

JsonValue schedule_to_json(const Schedule& schedule) {
  JsonValue::Object object;
  object.emplace_back("machines", JsonValue(schedule.machines));
  object.emplace_back("T", JsonValue(schedule.T));
  object.emplace_back("denominator", JsonValue(schedule.time_denominator));
  object.emplace_back("speed", JsonValue(schedule.speed));
  JsonValue::Array calibrations;
  calibrations.reserve(schedule.calibrations.size());
  // Unit-model schedules keep the historical two-field shape; an explicit
  // type table adds the type id (mirrors the text format's third column).
  for (const Calibration& cal : schedule.calibrations) {
    JsonValue::Array fields;
    fields.emplace_back(cal.machine);
    fields.emplace_back(cal.start);
    if (!schedule.cal.empty()) fields.emplace_back(cal.type);
    calibrations.emplace_back(std::move(fields));
  }
  object.emplace_back("calibrations", JsonValue(std::move(calibrations)));
  JsonValue::Array jobs;
  jobs.reserve(schedule.jobs.size());
  for (const ScheduledJob& sj : schedule.jobs) {
    JsonValue::Array fields;
    fields.emplace_back(static_cast<std::int64_t>(sj.job));
    fields.emplace_back(sj.machine);
    fields.emplace_back(sj.start);
    jobs.emplace_back(std::move(fields));
  }
  object.emplace_back("jobs", JsonValue(std::move(jobs)));
  return JsonValue(std::move(object));
}

JsonValue make_result_response(const JsonValue& id, const SolveOutcome& outcome,
                               bool want_schedule) {
  JsonValue::Object object;
  object.emplace_back("id", id);
  object.emplace_back("type", JsonValue("result"));
  object.emplace_back("status", JsonValue(to_string(outcome.status)));
  object.emplace_back("feasible", JsonValue(outcome.feasible));
  object.emplace_back("verified", JsonValue(outcome.verified));
  object.emplace_back("jobs", JsonValue(outcome.jobs));
  object.emplace_back("calibrations", JsonValue(outcome.calibrations));
  object.emplace_back("machines", JsonValue(outcome.machines));
  object.emplace_back("speed", JsonValue(outcome.speed));
  object.emplace_back("total_cost", JsonValue(outcome.total_cost));
  object.emplace_back("error", JsonValue(outcome.error));
  if (want_schedule && outcome.feasible) {
    object.emplace_back("schedule", schedule_to_json(outcome.schedule));
  }
  return JsonValue(std::move(object));
}

JsonValue make_error_response(const JsonValue& id, std::string_view error) {
  JsonValue::Object object;
  object.emplace_back("id", id);
  object.emplace_back("type", JsonValue("error"));
  object.emplace_back("error", JsonValue(error));
  return JsonValue(std::move(object));
}

JsonValue make_reject_response(const JsonValue& id, std::string_view error) {
  JsonValue::Object object;
  object.emplace_back("id", id);
  object.emplace_back("type", JsonValue("reject"));
  object.emplace_back("error", JsonValue(error));
  return JsonValue(std::move(object));
}

JsonValue make_delta_response(const JsonValue& id, Time time,
                              const std::vector<Calibration>& calibrations,
                              const std::vector<ScheduledJob>& jobs,
                              bool unit_model) {
  JsonValue::Object object;
  object.emplace_back("id", id);
  object.emplace_back("type", JsonValue("delta"));
  object.emplace_back("time", JsonValue(time));
  JsonValue::Array cals;
  cals.reserve(calibrations.size());
  for (const Calibration& cal : calibrations) {
    JsonValue::Array fields;
    fields.emplace_back(cal.machine);
    fields.emplace_back(cal.start);
    if (!unit_model) fields.emplace_back(cal.type);
    cals.emplace_back(std::move(fields));
  }
  object.emplace_back("calibrations", JsonValue(std::move(cals)));
  JsonValue::Array placed;
  placed.reserve(jobs.size());
  for (const ScheduledJob& sj : jobs) {
    JsonValue::Array fields;
    fields.emplace_back(static_cast<std::int64_t>(sj.job));
    fields.emplace_back(sj.machine);
    fields.emplace_back(sj.start);
    placed.emplace_back(std::move(fields));
  }
  object.emplace_back("jobs", JsonValue(std::move(placed)));
  return JsonValue(std::move(object));
}

JsonValue make_ack_response(const JsonValue& id, std::string_view op) {
  JsonValue::Object object;
  object.emplace_back("id", id);
  object.emplace_back("type", JsonValue("ack"));
  object.emplace_back("op", JsonValue(op));
  return JsonValue(std::move(object));
}

std::string dump_response(const JsonValue& response) {
  return response.dump(0);
}

}  // namespace calisched
