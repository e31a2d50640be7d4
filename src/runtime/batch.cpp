#include "runtime/batch.hpp"

#include <ostream>
#include <stdexcept>
#include <utility>

#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace calisched {

std::uint64_t derive_instance_seed(std::uint64_t base_seed,
                                   std::uint64_t index) noexcept {
  // splitmix64 over a mix of base and index; index+1 keeps instance 0 from
  // collapsing onto the base seed itself.
  std::uint64_t state = base_seed ^ ((index + 1) * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

Instance generate_family_instance(const BatchSpec& spec,
                                  const GenParams& params) {
  const std::string& family = spec.family;
  if (family == "mixed") return generate_mixed(params, spec.long_fraction);
  if (family == "long") return generate_long_window(params);
  if (family == "short") return generate_short_window(params);
  if (family == "unit") {
    return generate_unit(
        params, spec.max_window > 0 ? spec.max_window : 2 * params.T - 1);
  }
  if (family == "clustered") {
    return generate_clustered(params, spec.bursts > 0 ? spec.bursts : 3,
                              spec.burst_span > 0 ? spec.burst_span : params.T,
                              spec.long_windows);
  }
  if (family == "calib-cheap-short") {
    return generate_calib_cost(params, CalibTableRegime::kCheapShort);
  }
  if (family == "calib-expensive-long") {
    return generate_calib_cost(params, CalibTableRegime::kExpensiveLong);
  }
  if (family == "calib-delayed") {
    return generate_calib_cost(params, CalibTableRegime::kDelayed);
  }
  if (family == "online-poisson") return generate_online_poisson(params);
  if (family == "online-burst") {
    return generate_online_burst(params, spec.bursts > 0 ? spec.bursts : 4);
  }
  if (family == "online-drip") return generate_online_drip(params);
  throw std::invalid_argument(
      "unknown family '" + family +
      "' (mixed|long|short|unit|clustered|calib-cheap-short|"
      "calib-expensive-long|calib-delayed|online-poisson|online-burst|"
      "online-drip)");
}

std::vector<Instance> generate_batch(const BatchSpec& spec,
                                     std::vector<std::uint64_t>* seeds_out) {
  std::vector<Instance> instances;
  instances.reserve(spec.count);
  if (seeds_out) {
    seeds_out->clear();
    seeds_out->reserve(spec.count);
  }
  for (std::size_t i = 0; i < spec.count; ++i) {
    GenParams params = spec.params;
    params.seed = derive_instance_seed(spec.params.seed, i);
    if (seeds_out) seeds_out->push_back(params.seed);
    instances.push_back(generate_family_instance(spec, params));
  }
  return instances;
}

std::vector<BatchRecord> BatchRunner::run(const std::vector<Instance>& instances,
                                          const BatchOptions& options) const {
  std::vector<BatchRecord> records(instances.size());
  ThreadPool pool(options.threads);
  // Chunked sharding: each worker claims a contiguous run of instances, so
  // it writes adjacent BatchRecords and its per-thread LP workspace sees a
  // streak of similarly-shaped models back to back. Records are keyed by
  // index, so the JSONL output is byte-identical at any thread count.
  parallel_for_chunked(pool, instances.size(), [&](std::size_t i) {
    const Instance& instance = instances[i];
    BatchRecord& record = records[i];
    record.index = i;
    record.seed = i < options.seeds.size() ? options.seeds[i] : 0;
    record.algorithm = algorithm_->name();
    record.jobs = instance.size();

    RunLimits limits;
    if (options.per_instance_deadline.count() > 0) {
      limits = RunLimits::deadline_after(options.per_instance_deadline);
    }
    limits.cancel = options.cancel;
    limits.node_budget = options.node_budget;

    // One private trace per task: TraceContext is not synchronized.
    TraceContext trace(algorithm_->name());
    TraceContext* trace_ptr = options.collect_traces ? &trace : nullptr;

    const auto started = std::chrono::steady_clock::now();
    const RunResult result = algorithm_->run(instance, limits, trace_ptr);
    record.elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - started)
                            .count();
    record.status = result.status;
    record.feasible = result.feasible;
    record.verified = result.verified;
    record.calibrations = result.calibrations;
    record.machines = result.machines;
    record.speed = result.speed;
    record.total_cost = result.total_cost;
    record.error = result.error;
    if (options.collect_traces) record.trace = trace.to_json();
  });
  return records;
}

JsonValue batch_record_json(const BatchRecord& record, bool include_timing) {
  JsonValue::Object object;
  object.emplace_back("index", JsonValue(record.index));
  object.emplace_back("seed",
                      JsonValue(static_cast<std::int64_t>(record.seed)));
  object.emplace_back("algorithm", JsonValue(record.algorithm));
  object.emplace_back("status", JsonValue(to_string(record.status)));
  object.emplace_back("feasible", JsonValue(record.feasible));
  object.emplace_back("verified", JsonValue(record.verified));
  object.emplace_back("jobs", JsonValue(record.jobs));
  object.emplace_back("calibrations", JsonValue(record.calibrations));
  object.emplace_back("machines", JsonValue(record.machines));
  object.emplace_back("speed", JsonValue(record.speed));
  object.emplace_back("total_cost", JsonValue(record.total_cost));
  object.emplace_back("error", JsonValue(record.error));
  if (include_timing) {
    object.emplace_back("elapsed_ns", JsonValue(record.elapsed_ns));
    if (!record.trace.is_null()) {
      object.emplace_back("trace", record.trace);
    }
  }
  return JsonValue(std::move(object));
}

void write_batch_jsonl(std::ostream& out,
                       const std::vector<BatchRecord>& records,
                       bool include_timing) {
  for (const BatchRecord& record : records) {
    out << batch_record_json(record, include_timing).dump(0) << '\n';
  }
}

}  // namespace calisched
