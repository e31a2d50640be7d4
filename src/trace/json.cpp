#include "trace/json.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace calisched {
namespace {

void write_escaped(std::ostream& out, std::string_view text) {
  out << '"';
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\b': out << "\\b"; break;
      case '\f': out << "\\f"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out << buffer;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void write_newline(std::ostream& out, int indent, int depth) {
  if (indent <= 0) return;
  out << '\n';
  for (int i = 0; i < indent * depth; ++i) out << ' ';
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
      case '[': {
        // Each level is a recursive call: bound the depth, not the stack.
        if (depth_ == JsonValue::kMaxParseDepth) {
          fail("nesting deeper than " +
               std::to_string(JsonValue::kMaxParseDepth) + " levels");
        }
        ++depth_;
        JsonValue nested = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return nested;
      }
      case '"': return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue(nullptr);
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(object));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    for (;;) {
      array.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(array));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string result;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return result;
      if (c != '\\') {
        result += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': result += '"'; break;
        case '\\': result += '\\'; break;
        case '/': result += '/'; break;
        case 'b': result += '\b'; break;
        case 'f': result += '\f'; break;
        case 'n': result += '\n'; break;
        case 'r': result += '\r'; break;
        case 't': result += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode (surrogate pairs are passed through as two
          // 3-byte sequences; the trace layer never emits them).
          if (code < 0x80) {
            result += static_cast<char>(code);
          } else if (code < 0x800) {
            result += static_cast<char>(0xC0 | (code >> 6));
            result += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            result += static_cast<char>(0xE0 | (code >> 12));
            result += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            result += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") fail("bad number");
    try {
      if (!is_double) return JsonValue(std::int64_t{std::stoll(token)});
      return JsonValue(std::stod(token));
    } catch (const std::exception&) {
      fail("number out of range: " + token);
    }
  }

  std::string_view text_;
  int depth_ = 0;  ///< open objects and arrays around the cursor
  std::size_t pos_ = 0;
};

}  // namespace

std::int64_t JsonValue::as_int() const {
  if (is_int()) return std::get<std::int64_t>(value_);
  return static_cast<std::int64_t>(std::get<double>(value_));
}

double JsonValue::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
  return std::get<double>(value_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [name, value] : as_object()) {
    if (name == key) return &value;
  }
  return nullptr;
}

void JsonValue::set(std::string key, JsonValue value) {
  if (!is_object()) value_ = Object{};
  as_object().emplace_back(std::move(key), std::move(value));
}

void JsonValue::write(std::ostream& out, int indent) const {
  write_impl(out, indent, 0);
}

void JsonValue::write_impl(std::ostream& out, int indent, int depth) const {
  if (is_null()) {
    out << "null";
  } else if (is_bool()) {
    out << (as_bool() ? "true" : "false");
  } else if (is_int()) {
    out << std::get<std::int64_t>(value_);
  } else if (is_double()) {
    const double d = std::get<double>(value_);
    if (!std::isfinite(d)) {
      out << "null";  // JSON has no inf/nan
      return;
    }
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", d);
    out << buffer;
  } else if (is_string()) {
    write_escaped(out, as_string());
  } else if (is_array()) {
    const Array& array = as_array();
    if (array.empty()) {
      out << "[]";
      return;
    }
    out << '[';
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i) out << ',';
      write_newline(out, indent, depth + 1);
      array[i].write_impl(out, indent, depth + 1);
    }
    write_newline(out, indent, depth);
    out << ']';
  } else {
    const Object& object = as_object();
    if (object.empty()) {
      out << "{}";
      return;
    }
    out << '{';
    for (std::size_t i = 0; i < object.size(); ++i) {
      if (i) out << ',';
      write_newline(out, indent, depth + 1);
      write_escaped(out, object[i].first);
      out << (indent > 0 ? ": " : ":");
      object[i].second.write_impl(out, indent, depth + 1);
    }
    write_newline(out, indent, depth);
    out << '}';
  }
}

std::string JsonValue::dump(int indent) const {
  std::ostringstream out;
  write(out, indent);
  return out.str();
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace calisched
