// Wire protocol of the persistent solve service: newline-delimited JSON,
// one request object in, one response object out, always in request order.
//
// Request shapes (one per line; `id` is optional and echoed verbatim):
//   {"type":"solve","id":R,"algo":"combined",
//    "instance":{"machines":M,"T":T,"jobs":[[id,release,deadline,proc],...],
//                "caltypes":[[length,cost,delay],...]},
//    "timeout_ms":N,"node_budget":B,"schedule":false}
// "caltypes" is optional: absent or empty means the classic unit model
// (one type of length T, cost 1, no activation delay). "node_budget" is
// optional: a nonzero value caps the node/state count of exact engines
// (exhaustion reports status "limit", never "infeasible"); 0 keeps each
// solver's default.
// "timeout_ms" is optional: absent means no deadline; an explicit 0 is an
// already-expired deadline (the request completes synchronously with
// status "deadline", running nothing — the uniform deadline-0 probe).
//   {"type":"stats","id":R}      counters + latency percentiles snapshot
//   {"type":"ping","id":R}       liveness probe
//   {"type":"pause","id":R}      hold workers (queued requests wait)
//   {"type":"resume","id":R}     release paused workers
//   {"type":"shutdown","id":R}   drain in-flight solves, then exit
//
// Online-arrival session (one per connection, at most one live at a time):
//   {"type":"subscribe","id":R,"algo":"online-edf","machines":M,"T":T,
//    "caltypes":[[length,cost,delay],...]}        -> {"type":"ack","op":"subscribe"}
//   {"type":"arrive","id":R,"time":t,"jobs":[[id,release,deadline,proc],...]}
//       -> {"id":R,"type":"delta","time":t,"calibrations":[[m,start(,type)],...],
//           "jobs":[[id,m,start],...]}
//   {"type":"finalize","id":R,"schedule":false}   -> a "result" response
// The delta response carries everything the scheduler committed in
// (previous arrival time, t]; concatenating the deltas reproduces the
// final schedule exactly. Arrivals run on the reader/loop thread through
// the same ordered writer as every other response, so the delta stream is
// byte-identical across front ends and worker-thread counts.
//
// Response shapes:
//   {"id":R,"type":"result","status":"ok","feasible":true,...}
//   {"id":R,"type":"reject","error":"..."}     bounded queue was full
//   {"id":R,"type":"error","error":"..."}      malformed / unknown request
//   {"id":R,"type":"ack","op":"pause"}         ping/pause/resume/shutdown
//   {"id":R,"type":"stats","stats":{...}}
//
// Every malformed line gets an "error" response, never a crash or a dropped
// line — the parser catches everything and reports the offending field.
// Solve responses contain no timing and no served-from-cache marker, so a
// response stream is byte-identical for any worker-thread count and any
// cache state.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "runtime/status.hpp"
#include "trace/json.hpp"

namespace calisched {

enum class RequestType {
  kSolve,
  kStats,
  kPing,
  kPause,
  kResume,
  kShutdown,
  kSubscribe,
  kArrive,
  kFinalize,
};

/// One decoded request line.
struct ServiceRequest {
  RequestType type = RequestType::kSolve;
  JsonValue id;  ///< echoed verbatim; null when the client sent none
  // Solve-only fields (subscribe reuses `algorithm` and the machine-park
  // part of `instance`: machines, T, caltypes — jobs stays empty):
  std::string algorithm = "combined";
  Instance instance;
  /// Per-request deadline. -1 (absent) means none; an explicit 0 is an
  /// already-expired deadline and must complete with status "deadline"
  /// without running the solver.
  std::int64_t timeout_ms = -1;
  std::int64_t node_budget = 0; ///< exact-search node/state cap; 0 = default
  bool want_schedule = false;   ///< attach the full schedule to the result
  // Arrive-only fields:
  Time arrive_time = 0;
  std::vector<Job> arrivals;
};

/// parse_request outcome: `ok` selects between `request` and `error`;
/// `id` is recovered best-effort either way so error responses can still
/// be correlated by the client.
struct ParsedRequest {
  bool ok = false;
  ServiceRequest request;
  std::string error;
  JsonValue id;
};

/// Decodes one NDJSON line. Never throws: malformed JSON, a missing or
/// unknown "type", and every instance-shape violation come back as
/// `ok == false` with a message naming the offending field.
[[nodiscard]] ParsedRequest parse_request(std::string_view line);

/// The solve payload responses and the cache both carry.
struct SolveOutcome {
  SolveStatus status = SolveStatus::kOk;
  bool feasible = false;
  bool verified = false;
  std::size_t jobs = 0;
  std::size_t calibrations = 0;
  int machines = 0;
  std::int64_t speed = 1;
  /// Total calibration cost under the instance's type table (equals the
  /// calibration count under the unit model).
  std::int64_t total_cost = 0;
  std::string error;
  Schedule schedule;     ///< valid when feasible and the algorithm emits one
  bool rejected = false; ///< bounded queue was full; nothing was run
};

// --- JSON builders (field order is fixed; serialization is deterministic) --
[[nodiscard]] JsonValue instance_to_json(const Instance& instance);
[[nodiscard]] JsonValue schedule_to_json(const Schedule& schedule);

[[nodiscard]] JsonValue make_result_response(const JsonValue& id,
                                             const SolveOutcome& outcome,
                                             bool want_schedule);
[[nodiscard]] JsonValue make_error_response(const JsonValue& id,
                                            std::string_view error);
[[nodiscard]] JsonValue make_reject_response(const JsonValue& id,
                                             std::string_view error);
[[nodiscard]] JsonValue make_ack_response(const JsonValue& id,
                                          std::string_view op);

/// One subscribe-session schedule delta. `unit_model` selects the
/// two-field calibration shape ([machine,start]) over the explicit
/// three-field one ([machine,start,type]), mirroring schedule_to_json.
[[nodiscard]] JsonValue make_delta_response(const JsonValue& id, Time time,
                                            const std::vector<Calibration>& calibrations,
                                            const std::vector<ScheduledJob>& jobs,
                                            bool unit_model);

/// One compact line (no trailing newline).
[[nodiscard]] std::string dump_response(const JsonValue& response);

}  // namespace calisched
