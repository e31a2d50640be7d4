#include "mm/mm.hpp"
#include "trace/trace.hpp"

namespace calisched {

MMResult MachineMinimizer::minimize(const Instance& instance,
                                    const RunLimits& limits,
                                    TraceContext* trace) const {
  TraceSpan span(trace, "mm");
  MMResult result = solve(instance, limits, trace);
  span.stop();
  if (trace) {
    trace->add("mm.invocations");
    trace->add("mm.jobs", static_cast<std::int64_t>(instance.size()));
    trace->add("mm.search_nodes", result.search_nodes);
    if (result.feasible) {
      trace->add("mm.machines.returned", result.schedule.machines);
    } else {
      trace->add("mm.failures");
    }
    trace->note("mm.algorithm", result.algorithm);
    trace->note("mm.box", name());
  }
  return result;
}

}  // namespace calisched
