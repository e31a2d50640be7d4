#include "trace/trace.hpp"

#include <algorithm>

namespace calisched {
namespace {

template <typename Vec>
auto* find_by_first(Vec& entries, std::string_view name) {
  for (auto& entry : entries) {
    if (entry.first == name) return &entry;
  }
  return static_cast<typename Vec::value_type*>(nullptr);
}

}  // namespace

void TraceContext::add(std::string_view counter, std::int64_t delta) {
  if (auto* entry = find_by_first(counters_, counter)) {
    entry->second += delta;
    return;
  }
  counters_.emplace_back(std::string(counter), delta);
}

void TraceContext::set(std::string_view counter, std::int64_t value) {
  if (auto* entry = find_by_first(counters_, counter)) {
    entry->second = value;
    return;
  }
  counters_.emplace_back(std::string(counter), value);
}

std::int64_t TraceContext::counter(std::string_view name) const {
  for (const auto& [key, value] : counters_) {
    if (key == name) return value;
  }
  return 0;
}

bool TraceContext::has_counter(std::string_view name) const {
  for (const auto& [key, value] : counters_) {
    if (key == name) return true;
  }
  return false;
}

void TraceContext::set_value(std::string_view name, double value) {
  if (auto* entry = find_by_first(values_, name)) {
    entry->second = value;
    return;
  }
  values_.emplace_back(std::string(name), value);
}

double TraceContext::value(std::string_view name) const {
  for (const auto& [key, value] : values_) {
    if (key == name) return value;
  }
  return 0.0;
}

void TraceContext::note(std::string_view key, std::string_view value) {
  for (NoteSet& set : notes_) {
    if (set.key != key) continue;
    if (std::find(set.values.begin(), set.values.end(), value) ==
        set.values.end()) {
      set.values.emplace_back(value);
    }
    return;
  }
  notes_.push_back({std::string(key), {std::string(value)}});
}

std::vector<std::string> TraceContext::notes(std::string_view key) const {
  for (const NoteSet& set : notes_) {
    if (set.key == key) return set.values;
  }
  return {};
}

void TraceContext::record_span(std::string_view name, std::int64_t ns) {
  for (SpanStat& span : spans_) {
    if (span.name != name) continue;
    span.total_ns += ns;
    ++span.count;
    return;
  }
  spans_.push_back({std::string(name), ns, 1});
}

std::int64_t TraceContext::span_ns(std::string_view name) const {
  for (const SpanStat& span : spans_) {
    if (span.name == name) return span.total_ns;
  }
  return 0;
}

std::int64_t TraceContext::span_count(std::string_view name) const {
  for (const SpanStat& span : spans_) {
    if (span.name == name) return span.count;
  }
  return 0;
}

bool TraceContext::has_span(std::string_view name) const {
  for (const SpanStat& span : spans_) {
    if (span.name == name) return true;
  }
  return false;
}

void TraceContext::absorb(const TraceContext& other) {
  for (const auto& [key, value] : other.counters_) add(key, value);
  for (const auto& [key, value] : other.values_) set_value(key, value);
  for (const NoteSet& set : other.notes_) {
    for (const std::string& value : set.values) note(set.key, value);
  }
  for (const SpanStat& span : other.spans_) {
    // record_span would bump count by 1 per call; merge the aggregate.
    bool merged = false;
    for (SpanStat& mine : spans_) {
      if (mine.name != span.name) continue;
      mine.total_ns += span.total_ns;
      mine.count += span.count;
      merged = true;
      break;
    }
    if (!merged) spans_.push_back(span);
  }
  for (const auto& other_child : other.children_) {
    child(other_child->name_).absorb(*other_child);
  }
}

TraceContext& TraceContext::child(std::string_view name) {
  for (const auto& existing : children_) {
    if (existing->name_ == name) return *existing;
  }
  children_.push_back(std::make_unique<TraceContext>(std::string(name)));
  return *children_.back();
}

const TraceContext* TraceContext::find(std::string_view name) const {
  for (const auto& existing : children_) {
    if (existing->name_ == name) return existing.get();
  }
  return nullptr;
}

JsonValue TraceContext::to_json() const {
  JsonValue::Object object;
  object.emplace_back("name", JsonValue(name_));
  if (!counters_.empty()) {
    JsonValue::Object counters;
    for (const auto& [key, value] : counters_) {
      counters.emplace_back(key, JsonValue(value));
    }
    object.emplace_back("counters", JsonValue(std::move(counters)));
  }
  if (!values_.empty()) {
    JsonValue::Object values;
    for (const auto& [key, value] : values_) {
      values.emplace_back(key, JsonValue(value));
    }
    object.emplace_back("values", JsonValue(std::move(values)));
  }
  if (!notes_.empty()) {
    JsonValue::Object notes;
    for (const NoteSet& set : notes_) {
      JsonValue::Array values;
      for (const std::string& value : set.values) values.emplace_back(value);
      notes.emplace_back(set.key, JsonValue(std::move(values)));
    }
    object.emplace_back("notes", JsonValue(std::move(notes)));
  }
  if (!spans_.empty()) {
    JsonValue::Object spans;
    for (const SpanStat& span : spans_) {
      JsonValue::Object stat;
      stat.emplace_back("ns", JsonValue(span.total_ns));
      stat.emplace_back("count", JsonValue(span.count));
      spans.emplace_back(span.name, JsonValue(std::move(stat)));
    }
    object.emplace_back("spans", JsonValue(std::move(spans)));
  }
  if (!children_.empty()) {
    JsonValue::Array children;
    for (const auto& child_context : children_) {
      children.push_back(child_context->to_json());
    }
    object.emplace_back("children", JsonValue(std::move(children)));
  }
  return JsonValue(std::move(object));
}

std::string TraceContext::json(int indent) const {
  return to_json().dump(indent);
}

}  // namespace calisched
