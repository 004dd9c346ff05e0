// Recursive-descent SQL parser producing the AST of ast.h.
#pragma once

#include <memory>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace explainit::sql {

/// Deepest nesting a statement may reach: along any path, sub-selects
/// plus expression levels (operators, calls, CASE, IN lists, NOT, unary
/// minus, subscripts) plus redundant parentheses. Deeper input is a
/// ParseError, which bounds every recursive walk of the parsed tree
/// (planner, evaluator, printer, destructor). Printing never deepens a
/// statement, so ToSql output of an accepted statement parses again.
inline constexpr size_t kMaxNestingDepth = 256;

/// Parses a full statement: a SELECT (with optional UNION ALL chain) or
/// an EXPLAIN statement. Fails with ParseError carrying the offending
/// token's line/column.
Result<std::unique_ptr<Statement>> ParseStatement(std::string_view query);

/// Parses a single SELECT statement (with optional UNION ALL chain).
/// EXPLAIN input is rejected — statement-level callers use
/// ParseStatement. Fails with ParseError carrying the offending token
/// position.
Result<std::unique_ptr<SelectStatement>> Parse(std::string_view query);

/// Parses a standalone scalar expression (used by tests and the engine's
/// family-pattern mini-queries).
Result<ExprPtr> ParseExpression(std::string_view text);

}  // namespace explainit::sql
