#ifndef TXREP_REL_VALUE_H_
#define TXREP_REL_VALUE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace txrep::rel {

/// Column/value types supported by the relational engine. Deliberately the
/// small set the TPC-W schema needs.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

/// Returns "NULL", "INT", "DOUBLE" or "STRING".
const char* ValueTypeName(ValueType type);

/// A typed SQL value. Value is a regular value type: copyable, totally
/// ordered (ordering is by type tag first, then by payload), hashable via its
/// encoded form in codec/. NULL compares equal to NULL and before everything
/// else — sufficient for index keys; the engine forbids NULL primary keys.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : payload_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(std::in_place_type<int64_t>, v); }
  static Value Real(double v) { return Value(std::in_place_type<double>, v); }
  static Value Str(std::string v) {
    return Value(std::in_place_type<std::string>, std::move(v));
  }

  ValueType type() const {
    return static_cast<ValueType>(payload_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; the caller must check type() first (asserted in debug).
  int64_t AsInt() const { return std::get<int64_t>(payload_); }
  double AsDouble() const { return std::get<double>(payload_); }
  const std::string& AsString() const { return std::get<std::string>(payload_); }

  /// Numeric value widened to double (INT or DOUBLE only).
  double AsNumeric() const {
    return type() == ValueType::kInt64 ? static_cast<double>(AsInt())
                                       : AsDouble();
  }

  /// Display form: NULL, 42, 3.5, 'text'.
  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.payload_ == b.payload_;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return a.payload_ < b.payload_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator>(const Value& a, const Value& b) { return b < a; }
  friend bool operator<=(const Value& a, const Value& b) { return !(b < a); }
  friend bool operator>=(const Value& a, const Value& b) { return !(a < b); }

 private:
  using Payload = std::variant<std::monostate, int64_t, double, std::string>;
  // Builds the payload in place: moving a temporary variant holding a
  // string makes GCC 12 report -Wmaybe-uninitialized at every inlined use.
  template <typename T, typename Arg>
  Value(std::in_place_type_t<T> type, Arg&& arg)
      : payload_(type, std::forward<Arg>(arg)) {}

  Payload payload_;
};

/// A tuple of column values, in schema column order.
using Row = std::vector<Value>;

/// Display form: (1, 'Item1', 100).
std::string RowToString(const Row& row);

}  // namespace txrep::rel

#endif  // TXREP_REL_VALUE_H_
