// Online-arrival subscribe sessions for the NDJSON front ends.
//
// One OnlineSession wraps one OnlineSimulation: `subscribe` opens it,
// each `arrive` advances it and yields one schedule-delta response, and
// `finalize` closes it with a result-shaped summary. The per-connection
// engine (ServeConnection, server.hpp) drives the session synchronously
// on the thread that parsed the request and queues the returned line as a
// ready response slot, so a subscribe session produces a byte-identical
// response stream on both front ends and at every worker-thread count
// (the simulation itself is deterministic and single-threaded; the solve
// pool is never involved).
//
// Each connection owns at most one live session; a second `subscribe`
// before `finalize` is an error, as is `arrive`/`finalize` without one.
// The session lives inside its connection's engine and only that
// connection's reader touches it, so no synchronization is needed.
#pragma once

#include <memory>
#include <string>

#include "online/online.hpp"
#include "service/protocol.hpp"

namespace calisched {

class OnlineSession {
 public:
  /// True between a successful subscribe and the matching finalize.
  [[nodiscard]] bool active() const noexcept { return simulation_ != nullptr; }

  /// Handles one already-parsed subscribe/arrive/finalize request and
  /// returns the complete response line (no trailing newline) — an ack,
  /// a delta, a result, or an error. Never throws.
  [[nodiscard]] std::string handle(const ServiceRequest& request);

 private:
  [[nodiscard]] std::string subscribe(const ServiceRequest& request);
  [[nodiscard]] std::string arrive(const ServiceRequest& request);
  [[nodiscard]] std::string finalize(const ServiceRequest& request);

  std::unique_ptr<OnlineSimulation> simulation_;
  bool unit_model_ = true;  ///< selects the delta calibration shape
};

}  // namespace calisched
