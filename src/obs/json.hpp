// Minimal JSON document model for the observability subsystem.
//
// Trace sinks and run reports need a dependency-free way to build, emit and
// re-read JSON (the container image has no third-party JSON library). The
// model is deliberately small: a JsonValue is null, bool, number (double),
// string, array, or object; objects preserve insertion order so emitted
// documents are deterministic and diffable. dump() writes compact or
// indented text; parse() is a strict recursive-descent reader used by tests
// to round-trip JSONL trace files.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace hcsched::obs {

/// Raised by JsonValue::parse for malformed text, trailing garbage, or
/// nesting deeper than JsonValue::kMaxDepth.
class JsonParseError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// Insertion-ordered object (duplicate keys are not rejected; at() finds
  /// the first occurrence).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() noexcept : value_(nullptr) {}
  JsonValue(std::nullptr_t) noexcept : value_(nullptr) {}
  JsonValue(bool b) noexcept : value_(b) {}
  JsonValue(double d) noexcept : value_(d) {}
  JsonValue(int i) noexcept : value_(static_cast<double>(i)) {}
  JsonValue(long i) noexcept : value_(static_cast<double>(i)) {}
  JsonValue(long long i) noexcept : value_(static_cast<double>(i)) {}
  JsonValue(unsigned i) noexcept : value_(static_cast<double>(i)) {}
  JsonValue(unsigned long i) noexcept : value_(static_cast<double>(i)) {}
  JsonValue(unsigned long long i) noexcept
      : value_(static_cast<double>(i)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string_view s) : value_(std::string(s)) {}
  JsonValue(std::string s) noexcept : value_(std::move(s)) {}
  JsonValue(Array a) noexcept : value_(std::move(a)) {}
  JsonValue(Object o) noexcept : value_(std::move(o)) {}

  bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  bool is_bool() const noexcept {
    return std::holds_alternative<bool>(value_);
  }
  bool is_number() const noexcept {
    return std::holds_alternative<double>(value_);
  }
  bool is_string() const noexcept {
    return std::holds_alternative<std::string>(value_);
  }
  bool is_array() const noexcept {
    return std::holds_alternative<Array>(value_);
  }
  bool is_object() const noexcept {
    return std::holds_alternative<Object>(value_);
  }

  /// Typed accessors; throw std::bad_variant_access on kind mismatch.
  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const Array& as_array() const { return std::get<Array>(value_); }
  const Object& as_object() const { return std::get<Object>(value_); }
  Array& as_array() { return std::get<Array>(value_); }
  Object& as_object() { return std::get<Object>(value_); }

  /// First member named `key`, or nullptr (requires an object).
  const JsonValue* find(std::string_view key) const;
  /// Like find(), but throws std::out_of_range when absent.
  const JsonValue& at(std::string_view key) const;

  /// Serializes the value. indent < 0 -> compact single line (the JSONL
  /// form); indent >= 0 -> pretty-printed with that many spaces per level.
  std::string dump(int indent = -1) const;

  /// Deepest array/object nesting parse() accepts.
  static constexpr std::size_t kMaxDepth = 512;

  /// Strict parse of a complete JSON document (throws JsonParseError on
  /// syntax errors, trailing garbage or nesting past kMaxDepth).
  static JsonValue parse(std::string_view text);

  bool operator==(const JsonValue&) const = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
std::string json_escape(std::string_view s);

/// Formats a double the way dump() does: integers without a trailing ".0",
/// everything else with enough digits to round-trip.
std::string json_number(double d);

}  // namespace hcsched::obs
