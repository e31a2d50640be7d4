// A minimal ordered JSON document model with a writer and a strict
// recursive-descent parser.
//
// This exists so the telemetry layer (trace.hpp) and the bench harness can
// emit and round-trip structured records without an external dependency.
// Scope is deliberately small: objects preserve insertion order (so traces
// serialize deterministically), numbers distinguish integers from doubles
// (counter values survive a round trip exactly), and the parser rejects
// anything RFC 8259 rejects, plus documents nested deeper than
// kMaxParseDepth.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace calisched {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// Insertion-ordered; duplicate keys are not rejected but `find` returns
  /// the first match.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool value) : value_(value) {}
  JsonValue(std::int64_t value) : value_(value) {}
  JsonValue(int value) : value_(static_cast<std::int64_t>(value)) {}
  JsonValue(std::size_t value) : value_(static_cast<std::int64_t>(value)) {}
  JsonValue(double value) : value_(value) {}
  JsonValue(std::string value) : value_(std::move(value)) {}
  JsonValue(std::string_view value) : value_(std::string(value)) {}
  JsonValue(const char* value) : value_(std::string(value)) {}
  JsonValue(Array value) : value_(std::move(value)) {}
  JsonValue(Object value) : value_(std::move(value)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
  [[nodiscard]] bool is_double() const { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(value_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(value_); }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] std::int64_t as_int() const;      ///< int, or a lossless double
  [[nodiscard]] double as_double() const;         ///< any number
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(value_); }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(value_); }
  [[nodiscard]] Array& as_array() { return std::get<Array>(value_); }
  [[nodiscard]] const Object& as_object() const { return std::get<Object>(value_); }
  [[nodiscard]] Object& as_object() { return std::get<Object>(value_); }

  /// First member with `key`, or nullptr. Object only.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Appends a member (object) — no duplicate-key check.
  void set(std::string key, JsonValue value);

  /// Serializes; `indent` > 0 pretty-prints with that many spaces per level.
  void write(std::ostream& out, int indent = 0) const;
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Deepest nesting of objects and arrays parse() accepts. Requests nest
  /// 4 levels and trace exports a few per span level; the cap only stops
  /// hostile input from exhausting the stack.
  static constexpr int kMaxParseDepth = 256;

  /// Parses one JSON document (throws std::runtime_error with position info
  /// on malformed input; trailing non-whitespace and nesting deeper than
  /// kMaxParseDepth are errors).
  [[nodiscard]] static JsonValue parse(std::string_view text);

 private:
  void write_impl(std::ostream& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;
};

}  // namespace calisched
