// Minimal JSON document model, parser and writer.
//
// Grown for the serve subsystem's wire protocol and the ExperimentSpec
// round-trip: newline-delimited JSON requests/responses and checkpoint
// manifests. Deliberately small — a tree of Values, a strict recursive
// descent parser, and a deterministic writer — no reflection, no SAX.
//
// Numbers keep their lexical class: integer literals parse into exact
// signed/unsigned 64-bit storage (scenario seeds are full-range uint64 and
// MUST survive a round trip bit-exactly; a double would silently drop low
// bits past 2^53), everything else into double. The writer emits integers
// as integers and doubles with enough digits ('%.17g') to reparse exactly,
// so parse(dump(v)) is the identity on every value this library produces.
//
// Objects preserve insertion order (the writer is deterministic given the
// construction order), and duplicate keys are a parse error rather than a
// silent last-wins.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tcgrid::util::json {

class Value;
using Array = std::vector<Value>;
using Member = std::pair<std::string, Value>;
using Object = std::vector<Member>;

class Value {
 public:
  enum class Kind { Null, Bool, Int, Uint, Double, String, Array, Object };

  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool b) : kind_(Kind::Bool), bool_(b) {}
  Value(int v) : kind_(Kind::Int), int_(v) {}
  Value(long v) : kind_(Kind::Int), int_(v) {}
  Value(long long v) : kind_(Kind::Int), int_(v) {}
  Value(unsigned v) : kind_(Kind::Uint), uint_(v) {}
  Value(unsigned long v) : kind_(Kind::Uint), uint_(v) {}
  Value(unsigned long long v) : kind_(Kind::Uint), uint_(v) {}
  Value(double v) : kind_(Kind::Double), dbl_(v) {}
  Value(const char* s) : kind_(Kind::String), str_(s) {}
  Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
  Value(std::string_view s) : kind_(Kind::String), str_(s) {}
  Value(Array a) : kind_(Kind::Array), arr_(std::move(a)) {}
  Value(Object o) : kind_(Kind::Object), obj_(std::move(o)) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::Object; }
  /// Any numeric kind (Int, Uint or Double).
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::Int || kind_ == Kind::Uint || kind_ == Kind::Double;
  }
  /// A number that carries an exact integer (Int or Uint — i.e. an integer
  /// literal; 3.0 parses as Double and is NOT an integer here).
  [[nodiscard]] bool is_integer() const noexcept {
    return kind_ == Kind::Int || kind_ == Kind::Uint;
  }
  /// An integer that as_uint() accepts: Uint, or an Int >= 0. Check this,
  /// not is_integer(), before as_uint() on untrusted input.
  [[nodiscard]] bool is_unsigned() const noexcept {
    return kind_ == Kind::Uint || (kind_ == Kind::Int && int_ >= 0);
  }

  // Typed accessors. Each throws std::invalid_argument on a kind mismatch
  // (callers wanting field-path error messages check kinds first — see
  // api/spec_json.cpp).
  [[nodiscard]] bool as_bool() const;
  /// Int or in-range Uint; throws on overflow past INT64_MAX.
  [[nodiscard]] long long as_int() const;
  /// Uint or non-negative Int.
  [[nodiscard]] unsigned long long as_uint() const;
  /// Any numeric kind, widened to double.
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Member lookup on an object (nullptr when absent); throws when not an
  /// object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  bool operator==(const Value& other) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  long long int_ = 0;
  unsigned long long uint_ = 0;
  double dbl_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Parse one JSON document; the whole input must be consumed (trailing
/// non-whitespace is an error). Throws std::invalid_argument with the byte
/// offset of the problem. Nesting is capped (64 levels) so hostile input
/// cannot blow the stack.
[[nodiscard]] Value parse(std::string_view text);

/// Serialize compactly (no insignificant whitespace), deterministically,
/// with full string escaping — the emitted bytes are a pure function of the
/// value. Non-finite doubles throw (JSON has no representation for them).
[[nodiscard]] std::string dump(const Value& value);

/// Append `value` serialized to `out` (the allocation-friendly form dump()
/// wraps).
void dump_to(const Value& value, std::string& out);

/// Escape + quote a string exactly as dump() would (for hand-rolled
/// emitters that stream rows without building a Value tree).
void append_quoted(std::string_view s, std::string& out);

}  // namespace tcgrid::util::json
