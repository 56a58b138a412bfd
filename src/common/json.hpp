// Minimal JSON value type, serializer and parser.
//
// Backs the session-dump feature (core/session_dump.hpp): campaign
// results are archived as JSON documents that external tooling — or a
// later process — can read back. Deliberately small: UTF-8 passthrough,
// doubles for all numbers, no comments, no trailing commas.

#pragma once

#include <cstddef>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace impress::common {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}                       // null
  Json(std::nullptr_t) : value_(nullptr) {}         // NOLINT(runtime/explicit)
  Json(bool b) : value_(b) {}                       // NOLINT(runtime/explicit)
  Json(double d) : value_(d) {}                     // NOLINT(runtime/explicit)
  Json(int i) : value_(static_cast<double>(i)) {}   // NOLINT(runtime/explicit)
  Json(std::size_t n) : value_(static_cast<double>(n)) {}  // NOLINT
  Json(const char* s) : value_(std::string(s)) {}   // NOLINT(runtime/explicit)
  Json(std::string s) : value_(std::move(s)) {}     // NOLINT(runtime/explicit)
  Json(Array a) : value_(std::move(a)) {}           // NOLINT(runtime/explicit)
  Json(Object o) : value_(std::move(o)) {}          // NOLINT(runtime/explicit)

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<Array>(value_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<Object>(value_);
  }

  /// Typed accessors; throw std::bad_variant_access on mismatch.
  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] double as_number() const { return std::get<double>(value_); }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(value_);
  }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(value_); }
  [[nodiscard]] Array& as_array() { return std::get<Array>(value_); }
  [[nodiscard]] const Object& as_object() const {
    return std::get<Object>(value_);
  }
  [[nodiscard]] Object& as_object() { return std::get<Object>(value_); }

  /// Object member access; throws std::out_of_range when missing.
  [[nodiscard]] const Json& at(const std::string& key) const {
    return as_object().at(key);
  }
  /// Array element access.
  [[nodiscard]] const Json& at(std::size_t i) const { return as_array().at(i); }
  [[nodiscard]] bool contains(const std::string& key) const {
    return is_object() && as_object().contains(key);
  }
  [[nodiscard]] std::size_t size() const {
    if (is_array()) return as_array().size();
    if (is_object()) return as_object().size();
    return 0;
  }

  /// Serialize. `indent` > 0 pretty-prints with that many spaces.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parse a JSON document; throws std::invalid_argument with a byte
  /// offset on malformed input (including trailing garbage).
  [[nodiscard]] static Json parse(std::string_view text);

  bool operator==(const Json&) const = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

/// Append the text of a finite double, exactly as printf writes it: "%.0f"
/// for integral values below 1e15, "%.17g" for all others (which
/// round-trips every bit). Json::dump and the Prometheus exporter share
/// this; each spells non-finite values itself (JSON: null).
void append_finite_number(double d, std::string& out);

/// Append `s` as a quoted JSON string, escaping '"', '\\' and control
/// bytes (other bytes pass through). Json::dump writes every string and
/// object key with it; streaming writers that must match dump()'s bytes
/// call it too.
void append_json_string(std::string_view s, std::string& out);

}  // namespace impress::common
