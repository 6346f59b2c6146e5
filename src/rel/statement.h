#ifndef TXREP_REL_STATEMENT_H_
#define TXREP_REL_STATEMENT_H_

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "rel/value.h"

namespace txrep::rel {

/// Comparison operators usable in WHERE clauses.
enum class PredicateOp : uint8_t {
  kEq = 0,
  kLt = 1,
  kLe = 2,
  kGt = 3,
  kGe = 4,
  kBetween = 5,  // operand <= col <= operand2
};

/// Returns "=", "<", "<=", ">", ">=" or "BETWEEN".
const char* PredicateOpName(PredicateOp op);

/// One conjunct of a WHERE clause: `column op operand [AND operand2]`.
struct Predicate {
  std::string column;
  PredicateOp op = PredicateOp::kEq;
  Value operand;
  Value operand2 = {};  // Only for kBetween (upper bound, inclusive).

  /// Evaluates the predicate against `value` (the column's value).
  bool Matches(const Value& value) const;

  std::string ToString() const;
};

/// INSERT INTO table [(columns)] VALUES (values).
/// When `columns` is empty the values are in schema order.
struct InsertStatement {
  std::string table;
  std::vector<std::string> columns;
  Row values;
};

/// UPDATE table SET col=value, ... WHERE conjuncts.
struct UpdateStatement {
  std::string table;
  std::vector<std::pair<std::string, Value>> sets;
  std::vector<Predicate> where;
};

/// DELETE FROM table WHERE conjuncts.
struct DeleteStatement {
  std::string table;
  std::vector<Predicate> where;
};

/// Aggregate functions usable in a SELECT list.
enum class AggregateFn : uint8_t {
  kCount = 0,  // COUNT(col) counts non-NULL; COUNT(*) counts rows.
  kSum = 1,
  kMin = 2,
  kMax = 3,
  kAvg = 4,
};

/// Returns "COUNT", "SUM", "MIN", "MAX" or "AVG".
const char* AggregateFnName(AggregateFn fn);

/// One aggregate of the SELECT list: fn(column) or COUNT(*) (empty column).
struct AggregateItem {
  AggregateFn fn = AggregateFn::kCount;
  std::string column;  // Empty only for COUNT(*).

  std::string ToString() const;
};

/// ORDER BY column [DESC].
struct OrderBy {
  std::string column;
  bool descending = false;
};

/// SELECT columns|aggregates FROM table WHERE conjuncts
///   [ORDER BY col [ASC|DESC]] [LIMIT n].
/// Empty `columns` and empty `aggregates` means `*`. When `aggregates` is
/// non-empty the query returns exactly one row (no GROUP BY support).
struct SelectStatement {
  std::string table;
  std::vector<std::string> columns;
  std::vector<Predicate> where;
  std::vector<AggregateItem> aggregates = {};
  std::optional<OrderBy> order_by = {};
  size_t limit = 0;  // 0 = no limit.
};

/// Any executable statement.
using Statement = std::variant<InsertStatement, UpdateStatement,
                               DeleteStatement, SelectStatement>;

/// True for INSERT/UPDATE/DELETE — the statement kinds that reach the
/// transaction log and the replica.
bool IsWriteStatement(const Statement& stmt);

/// Table the statement targets.
const std::string& StatementTable(const Statement& stmt);

/// SQL-ish rendering for logs and debugging.
std::string StatementToString(const Statement& stmt);

}  // namespace txrep::rel

#endif  // TXREP_REL_STATEMENT_H_
