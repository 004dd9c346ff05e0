#include "sql/parser.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>

#include "common/strings.h"

namespace explainit::sql {

namespace {

/// Edges on the longest path below `e`.
size_t Height(const Expr& e) {
  size_t h = 0;
  ForEachChild(e, [&h](const Expr& c) { h = std::max(h, Height(c) + 1); });
  return h;
}

/// Token-stream cursor with the grammar's productions as methods.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  /// Top-level entry: SELECT (with UNION ALL chain), EXPLAIN, or the
  /// monitor admin statements DROP MONITOR / SHOW MONITORS.
  Result<std::unique_ptr<Statement>> ParseAnyStatement() {
    if (Current().IsKeyword("EXPLAIN")) {
      EXPLAINIT_ASSIGN_OR_RETURN(auto stmt, ParseExplain());
      EXPLAINIT_RETURN_IF_ERROR(ExpectEnd("EXPLAIN statement"));
      return std::unique_ptr<Statement>(std::move(stmt));
    }
    if (Current().IsKeyword("DROP")) {
      Advance();
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "MONITOR"));
      if (!CurrentIsIdentifierLike()) {
        return Err("expected a monitor name after DROP MONITOR");
      }
      auto stmt = std::make_unique<DropMonitorStatement>();
      stmt->name = CurrentIdentifierText();
      Advance();
      EXPLAINIT_RETURN_IF_ERROR(ExpectEnd("DROP MONITOR statement"));
      return std::unique_ptr<Statement>(std::move(stmt));
    }
    if (Current().IsKeyword("SHOW")) {
      Advance();
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "MONITORS"));
      EXPLAINIT_RETURN_IF_ERROR(ExpectEnd("SHOW MONITORS statement"));
      return std::unique_ptr<Statement>(std::make_unique<ShowMonitorsStatement>());
    }
    EXPLAINIT_ASSIGN_OR_RETURN(auto stmt, ParseSelectChain());
    EXPLAINIT_RETURN_IF_ERROR(ExpectEnd("statement"));
    return std::unique_ptr<Statement>(std::move(stmt));
  }

  Result<std::unique_ptr<SelectStatement>> ParseStatement() {
    if (Current().IsKeyword("EXPLAIN")) {
      return Err(
          "EXPLAIN is a statement, not a query expression; run it through "
          "the statement API (sql::ParseStatement / Engine::Query)");
    }
    EXPLAINIT_ASSIGN_OR_RETURN(auto stmt, ParseSelectChain());
    EXPLAINIT_RETURN_IF_ERROR(ExpectEnd("statement"));
    return stmt;
  }

  Result<ExprPtr> ParseStandaloneExpression() {
    EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (Current().type != TokenType::kEnd) {
      return Err("unexpected trailing input after expression");
    }
    return e;
  }

 private:
  const Token& Current() const { return tokens_[pos_]; }
  const Token& Peek(size_t ahead = 1) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  /// True when the current token can serve as an identifier: a real
  /// identifier or a soft statement keyword (SCORE, TOP, ...) whose
  /// original spelling is recoverable from Token::raw.
  bool CurrentIsIdentifierLike() const {
    return Current().type == TokenType::kIdentifier ||
           (Current().type == TokenType::kKeyword &&
            IsSoftKeyword(Current().text));
  }
  std::string CurrentIdentifierText() const {
    return Current().type == TokenType::kKeyword ? Current().raw
                                                 : Current().text;
  }

  Status Err(const std::string& msg) const {
    const Token& tok = Current();
    return Status::ParseError(
        msg + " (line " + std::to_string(tok.line) + ", column " +
        std::to_string(tok.column) + ", offset " +
        std::to_string(tok.position) + ", token '" + tok.text + "')");
  }

  Status TooDeep() const {
    return Err("statement nests deeper than " +
               std::to_string(kMaxNestingDepth) + " levels");
  }

  /// Runs `production` one nesting level down. `paren` marks grouping
  /// parentheses: the node directly inside them shares their level, as
  /// the printer parenthesises every binary node.
  template <typename T>
  Result<T> Nested(Result<T> (Parser::*production)(), bool paren = false) {
    if (depth_ == kMaxNestingDepth) return TooDeep();
    const bool outer_paren = paren_;
    ++depth_;
    paren_ = paren;
    Result<T> out = (this->*production)();
    paren_ = outer_paren;
    --depth_;
    return out;
  }

  /// `e`, built at the current level without descending one (a fold,
  /// comparison or postfix form), if it stays within the nesting cap.
  Result<ExprPtr> Bounded(ExprPtr e) const {
    const size_t level = paren_ ? depth_ - 1 : depth_;
    if (level + Height(*e) > kMaxNestingDepth) return TooDeep();
    return e;
  }

  Status ExpectEnd(const char* what) {
    if (Current().type != TokenType::kEnd) {
      return Err("unexpected trailing input after " + std::string(what));
    }
    return Status::OK();
  }

  Status Expect(TokenType type, std::string_view text) {
    if (Current().type != type || !EqualsIgnoreCase(Current().text, text)) {
      return Err("expected '" + std::string(text) + "'");
    }
    Advance();
    return Status::OK();
  }

  /// SELECT plus any UNION [ALL] continuation (shared by the top level,
  /// FROM-clause subqueries and EXPLAIN sub-selects).
  Result<std::unique_ptr<SelectStatement>> ParseSelectChain() {
    EXPLAINIT_ASSIGN_OR_RETURN(auto stmt, ParseSelect());
    while (Current().IsKeyword("UNION")) {
      Advance();
      if (Current().IsKeyword("ALL")) Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(auto next, ParseSelect());
      stmt->union_all.push_back(std::move(next));
    }
    return stmt;
  }

  // -------------------------------------------------------------------------
  // EXPLAIN statement
  // -------------------------------------------------------------------------

  /// One EXPLAIN operand: a SELECT chain, optionally parenthesised.
  /// `clause` names the owning clause for error messages.
  Result<std::unique_ptr<SelectStatement>> ParseExplainSelect(
      const char* clause) {
    if (Current().IsOperator("(")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(auto sel, Nested(&Parser::ParseSelectChain));
      if (!Current().IsOperator(")")) {
        return Err("expected ')' closing the " + std::string(clause) +
                   " clause's subquery");
      }
      Advance();
      return sel;
    }
    if (!Current().IsKeyword("SELECT")) {
      return Err("expected a SELECT (optionally parenthesised) in the " +
                 std::string(clause) + " clause");
    }
    return Nested(&Parser::ParseSelectChain);
  }

  /// Signed integer literal for statement-level TOP / BETWEEN operands.
  Result<int64_t> ParseStatementInt(const char* clause) {
    bool negative = false;
    if (Current().IsOperator("-")) {
      negative = true;
      Advance();
    }
    if (Current().type != TokenType::kNumber ||
        Current().text.find_first_of(".eE") != std::string::npos) {
      return Err("expected an integer in the " + std::string(clause) +
                 " clause");
    }
    int64_t v = 0;
    const char* end = Current().text.data() + Current().text.size();
    const auto [ptr, ec] =
        std::from_chars(Current().text.data(), end, v);
    if (ec != std::errc() || ptr != end) {
      return Err("integer out of range in the " + std::string(clause) +
                 " clause");
    }
    Advance();
    return negative ? -v : v;
  }

  Result<std::unique_ptr<ExplainStatement>> ParseExplain() {
    EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "EXPLAIN"));
    auto stmt = std::make_unique<ExplainStatement>();
    EXPLAINIT_ASSIGN_OR_RETURN(stmt->target, ParseExplainSelect("EXPLAIN"));
    if (Current().IsKeyword("GIVEN")) {
      Advance();
      if (Current().IsKeyword("PSEUDOCAUSE")) {
        stmt->given_pseudocause = true;
        Advance();
      } else {
        EXPLAINIT_ASSIGN_OR_RETURN(stmt->given, ParseExplainSelect("GIVEN"));
      }
    }
    if (!Current().IsKeyword("USING")) {
      return Err(
          "expected 'USING <select>' (the search space clause is "
          "mandatory in an EXPLAIN statement)");
    }
    Advance();
    EXPLAINIT_ASSIGN_OR_RETURN(stmt->search_space,
                               ParseExplainSelect("USING"));
    if (Current().IsKeyword("SCORE")) {
      Advance();
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "BY"));
      if (Current().type != TokenType::kString) {
        return Err("expected a quoted scorer name after SCORE BY");
      }
      stmt->scorer = Current().text;
      Advance();
    }
    if (Current().IsKeyword("TOP")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(int64_t k, ParseStatementInt("TOP"));
      if (k <= 0) return Err("TOP requires a positive count");
      stmt->top_k = k;
    }
    if (Current().IsKeyword("BETWEEN")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(int64_t lo, ParseStatementInt("BETWEEN"));
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "AND"));
      EXPLAINIT_ASSIGN_OR_RETURN(int64_t hi, ParseStatementInt("BETWEEN"));
      if (hi < lo) {
        return Err("BETWEEN range is empty (end precedes start)");
      }
      stmt->between_start = lo;
      stmt->between_end = hi;
    }
    // Standing-query clauses: [EVERY <duration>] [TRIGGERED] [INTO name].
    if (Current().IsKeyword("EVERY")) {
      Advance();
      int64_t seconds = 0;
      if (Current().type == TokenType::kDuration) {
        seconds = Current().seconds;
        Advance();
      } else {
        // A bare integer means seconds (EVERY 30 == EVERY 30s).
        EXPLAINIT_ASSIGN_OR_RETURN(seconds, ParseStatementInt("EVERY"));
      }
      if (seconds <= 0) return Err("EVERY requires a positive interval");
      stmt->every_seconds = seconds;
    }
    if (Current().IsKeyword("TRIGGERED")) {
      stmt->triggered = true;
      Advance();
    }
    if (Current().IsKeyword("INTO")) {
      if (!stmt->every_seconds.has_value() && !stmt->triggered) {
        return Err("INTO requires EVERY or TRIGGERED");
      }
      Advance();
      if (!CurrentIsIdentifierLike()) {
        return Err("expected a table name after INTO");
      }
      stmt->into_table = CurrentIdentifierText();
      Advance();
    }
    return stmt;
  }

  // -------------------------------------------------------------------------
  // SELECT
  // -------------------------------------------------------------------------

  Result<std::unique_ptr<SelectStatement>> ParseSelect() {
    EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "SELECT"));
    auto stmt = std::make_unique<SelectStatement>();
    if (Current().IsKeyword("DISTINCT")) {
      return Err("DISTINCT is not supported");
    }
    // Select list.
    while (true) {
      SelectItem item;
      if (Current().IsOperator("*")) {
        item.is_star = true;
        Advance();
      } else {
        EXPLAINIT_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Current().IsKeyword("AS")) {
          Advance();
          if (!CurrentIsIdentifierLike()) {
            return Err("expected alias after AS");
          }
          item.alias = CurrentIdentifierText();
          Advance();
        } else if (Current().type == TokenType::kIdentifier) {
          // Implicit alias: SELECT expr name. Soft keywords are excluded:
          // they delimit EXPLAIN clauses after a sub-select.
          item.alias = Current().text;
          Advance();
        }
      }
      stmt->items.push_back(std::move(item));
      if (!Current().IsOperator(",")) break;
      Advance();
    }
    // FROM.
    if (Current().IsKeyword("FROM")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
      stmt->from = std::move(ref);
      // Joins.
      while (true) {
        JoinType type;
        bool is_join = false;
        if (Current().IsKeyword("JOIN") || Current().IsKeyword("INNER")) {
          type = JoinType::kInner;
          if (Current().IsKeyword("INNER")) Advance();
          EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "JOIN"));
          is_join = true;
        } else if (Current().IsKeyword("LEFT")) {
          type = JoinType::kLeft;
          Advance();
          if (Current().IsKeyword("OUTER")) Advance();
          EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "JOIN"));
          is_join = true;
        } else if (Current().IsKeyword("FULL")) {
          type = JoinType::kFullOuter;
          Advance();
          if (Current().IsKeyword("OUTER")) Advance();
          EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "JOIN"));
          is_join = true;
        } else if (Current().IsKeyword("CROSS")) {
          type = JoinType::kCross;
          Advance();
          EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "JOIN"));
          is_join = true;
        }
        if (!is_join) break;
        JoinClause join;
        join.type = type;
        EXPLAINIT_ASSIGN_OR_RETURN(join.right, ParseTableRef());
        if (type != JoinType::kCross) {
          EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "ON"));
          EXPLAINIT_ASSIGN_OR_RETURN(join.condition, ParseExpr());
        }
        stmt->joins.push_back(std::move(join));
      }
    }
    // WHERE.
    if (Current().IsKeyword("WHERE")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    // GROUP BY.
    if (Current().IsKeyword("GROUP")) {
      Advance();
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "BY"));
      while (true) {
        EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
        if (!Current().IsOperator(",")) break;
        Advance();
      }
    }
    // HAVING.
    if (Current().IsKeyword("HAVING")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    // ORDER BY.
    if (Current().IsKeyword("ORDER")) {
      Advance();
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "BY"));
      while (true) {
        OrderByItem item;
        EXPLAINIT_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Current().IsKeyword("ASC")) {
          Advance();
        } else if (Current().IsKeyword("DESC")) {
          item.ascending = false;
          Advance();
        }
        stmt->order_by.push_back(std::move(item));
        if (!Current().IsOperator(",")) break;
        Advance();
      }
    }
    // LIMIT.
    if (Current().IsKeyword("LIMIT")) {
      Advance();
      if (Current().type != TokenType::kNumber) {
        return Err("expected a number after LIMIT");
      }
      // Checked like every other literal: an out-of-range LIMIT must be a
      // parse error, not a silent LIMIT 0.
      int64_t limit = 0;
      const char* end = Current().text.data() + Current().text.size();
      const auto [ptr, ec] =
          std::from_chars(Current().text.data(), end, limit);
      if (ec != std::errc() || ptr != end) {
        return Err("LIMIT count out of range");
      }
      stmt->limit = limit;
      Advance();
    }
    return stmt;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (Current().IsOperator("(")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(auto sub, Nested(&Parser::ParseSelectChain));
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kOperator, ")"));
      ref.subquery = std::move(sub);
    } else if (CurrentIsIdentifierLike()) {
      // Soft keywords stay valid table names too: a Score Table
      // registered as `score` must remain queryable. No ambiguity —
      // EXPLAIN clause keywords never directly follow FROM/JOIN.
      ref.table_name = CurrentIdentifierText();
      Advance();
    } else {
      return Err("expected table name or subquery");
    }
    // Optional alias (with or without AS). Soft keywords only qualify
    // after an explicit AS: bare they delimit EXPLAIN clauses.
    if (Current().IsKeyword("AS")) {
      Advance();
      if (!CurrentIsIdentifierLike()) {
        return Err("expected alias after AS");
      }
      ref.alias = CurrentIdentifierText();
      Advance();
    } else if (Current().type == TokenType::kIdentifier) {
      ref.alias = Current().text;
      Advance();
    }
    return ref;
  }

  // Precedence climbing: OR < AND < NOT < comparison < additive <
  // multiplicative < unary < postfix (subscript).
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Current().IsKeyword("OR")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      EXPLAINIT_ASSIGN_OR_RETURN(
          lhs, Bounded(MakeBinary(BinaryOp::kOr, std::move(lhs),
                                  std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (Current().IsKeyword("AND")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      EXPLAINIT_ASSIGN_OR_RETURN(
          lhs, Bounded(MakeBinary(BinaryOp::kAnd, std::move(lhs),
                                  std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (Current().IsKeyword("NOT")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr operand, Nested(&Parser::ParseNot));
      return MakeUnary(UnaryOp::kNot, std::move(operand));
    }
    EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr e, ParseComparison());
    return Bounded(std::move(e));
  }

  Result<ExprPtr> ParseComparison() {
    EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    // IS [NOT] NULL.
    if (Current().IsKeyword("IS")) {
      Advance();
      bool negated = false;
      if (Current().IsKeyword("NOT")) {
        negated = true;
        Advance();
      }
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "NULL"));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIsNull;
      e->left = std::move(lhs);
      e->negated = negated;
      return e;
    }
    bool negated = false;
    if (Current().IsKeyword("NOT") &&
        (Peek().IsKeyword("IN") || Peek().IsKeyword("BETWEEN") ||
         Peek().IsKeyword("LIKE"))) {
      negated = true;
      Advance();
    }
    if (Current().IsKeyword("BETWEEN")) {
      Advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kBetween;
      e->left = std::move(lhs);
      e->negated = negated;
      EXPLAINIT_ASSIGN_OR_RETURN(e->between_lo, ParseAdditive());
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "AND"));
      EXPLAINIT_ASSIGN_OR_RETURN(e->between_hi, ParseAdditive());
      return e;
    }
    if (Current().IsKeyword("IN")) {
      Advance();
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kOperator, "("));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kInList;
      e->left = std::move(lhs);
      e->negated = negated;
      while (true) {
        EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr item, Nested(&Parser::ParseExpr));
        e->list.push_back(std::move(item));
        if (!Current().IsOperator(",")) break;
        Advance();
      }
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kOperator, ")"));
      return e;
    }
    if (Current().IsKeyword("LIKE")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      ExprPtr like =
          MakeBinary(BinaryOp::kLike, std::move(lhs), std::move(rhs));
      if (negated) return MakeUnary(UnaryOp::kNot, std::move(like));
      return like;
    }
    struct OpMap {
      const char* text;
      BinaryOp op;
    };
    static constexpr OpMap kOps[] = {
        {"=", BinaryOp::kEq},  {"!=", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
        {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (const OpMap& m : kOps) {
      if (Current().IsOperator(m.text)) {
        Advance();
        EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        return MakeBinary(m.op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Current().IsOperator("+") || Current().IsOperator("-")) {
      const BinaryOp op =
          Current().IsOperator("+") ? BinaryOp::kAdd : BinaryOp::kSub;
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      EXPLAINIT_ASSIGN_OR_RETURN(
          lhs, Bounded(MakeBinary(op, std::move(lhs), std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (Current().IsOperator("*") || Current().IsOperator("/") ||
           Current().IsOperator("%")) {
      BinaryOp op = BinaryOp::kMul;
      if (Current().IsOperator("/")) op = BinaryOp::kDiv;
      if (Current().IsOperator("%")) op = BinaryOp::kMod;
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      EXPLAINIT_ASSIGN_OR_RETURN(
          lhs, Bounded(MakeBinary(op, std::move(lhs), std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Current().IsOperator("-")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr operand,
                                 Nested(&Parser::ParseUnary));
      return MakeUnary(UnaryOp::kNegate, std::move(operand));
    }
    return ParsePostfix();
  }

  Result<ExprPtr> ParsePostfix() {
    EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
    while (Current().IsOperator("[")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr index, Nested(&Parser::ParseExpr));
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kOperator, "]"));
      EXPLAINIT_ASSIGN_OR_RETURN(
          e, Bounded(MakeSubscript(std::move(e), std::move(index))));
    }
    return e;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Current();
    if (tok.IsOperator("(")) {
      Advance();
      EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr e,
                                 Nested(&Parser::ParseExpr, /*paren=*/true));
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kOperator, ")"));
      return e;
    }
    if (tok.type == TokenType::kDuration) {
      // Duration literals are integer seconds in expressions, so
      // `ts - ts % 5m` works anywhere `ts - ts % 300` does.
      const int64_t seconds = tok.seconds;
      Advance();
      return MakeLiteral(table::Value::Int(seconds));
    }
    if (tok.type == TokenType::kNumber) {
      // Untrusted literal text: 1e999 must become a parse error with the
      // token's position (std::stod throws std::out_of_range), and an
      // integer past int64 must be rejected, not silently parsed as 0
      // (the old unchecked from_chars). Errors are raised before
      // Advance() so they point at the offending literal.
      const std::string text = tok.text;
      if (text.find('.') != std::string::npos ||
          text.find('e') != std::string::npos ||
          text.find('E') != std::string::npos) {
        double d = 0.0;
        try {
          d = std::stod(text);
        } catch (const std::out_of_range&) {
          return Err("numeric literal out of range");
        } catch (const std::invalid_argument&) {
          return Err("malformed numeric literal");
        }
        if (!std::isfinite(d)) {
          return Err("numeric literal out of range");
        }
        Advance();
        return MakeLiteral(table::Value::Double(d));
      }
      int64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec == std::errc::result_out_of_range) {
        return Err("integer literal out of range (max 9223372036854775807)");
      }
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Err("malformed numeric literal");
      }
      Advance();
      return MakeLiteral(table::Value::Int(v));
    }
    if (tok.type == TokenType::kString) {
      std::string s = tok.text;
      Advance();
      return MakeLiteral(table::Value::String(std::move(s)));
    }
    if (tok.IsKeyword("NULL")) {
      Advance();
      return MakeLiteral(table::Value::Null());
    }
    if (tok.IsKeyword("TRUE")) {
      Advance();
      return MakeLiteral(table::Value::Bool(true));
    }
    if (tok.IsKeyword("FALSE")) {
      Advance();
      return MakeLiteral(table::Value::Bool(false));
    }
    if (tok.IsKeyword("CASE")) {
      Advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kCase;
      while (Current().IsKeyword("WHEN")) {
        Advance();
        CaseBranch branch;
        EXPLAINIT_ASSIGN_OR_RETURN(branch.condition,
                                   Nested(&Parser::ParseExpr));
        EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "THEN"));
        EXPLAINIT_ASSIGN_OR_RETURN(branch.result, Nested(&Parser::ParseExpr));
        e->case_branches.push_back(std::move(branch));
      }
      if (e->case_branches.empty()) return Err("CASE requires WHEN branches");
      if (Current().IsKeyword("ELSE")) {
        Advance();
        EXPLAINIT_ASSIGN_OR_RETURN(e->case_else, Nested(&Parser::ParseExpr));
      }
      EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kKeyword, "END"));
      return e;
    }
    // Identifiers, plus soft statement keywords (SCORE, TOP, ...) in
    // expression position — the Score Table's own `score` column stays
    // addressable even though SCORE BY is reserved at statement level.
    if (CurrentIsIdentifierLike()) {
      std::string name = CurrentIdentifierText();
      Advance();
      // Function call.
      if (Current().IsOperator("(")) {
        Advance();
        std::vector<ExprPtr> args;
        if (Current().IsOperator("*")) {
          // COUNT(*).
          args.push_back(MakeStar());
          Advance();
        } else if (!Current().IsOperator(")")) {
          while (true) {
            EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr a, Nested(&Parser::ParseExpr));
            args.push_back(std::move(a));
            if (!Current().IsOperator(",")) break;
            Advance();
          }
        }
        EXPLAINIT_RETURN_IF_ERROR(Expect(TokenType::kOperator, ")"));
        return MakeFunction(std::move(name), std::move(args));
      }
      // Qualified column: a.b.
      if (Current().IsOperator(".")) {
        Advance();
        if (Current().type != TokenType::kIdentifier &&
            Current().type != TokenType::kKeyword) {
          return Err("expected column name after '.'");
        }
        std::string col = Current().type == TokenType::kKeyword &&
                                  !Current().raw.empty()
                              ? Current().raw
                              : Current().text;
        Advance();
        return MakeColumnRef(std::move(name), std::move(col));
      }
      return MakeColumnRef("", std::move(name));
    }
    return Err("unexpected token in expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t depth_ = 0;     // nesting levels entered (see kMaxNestingDepth)
  bool paren_ = false;   // the innermost level is grouping parentheses
};

}  // namespace

Result<std::unique_ptr<Statement>> ParseStatement(std::string_view query) {
  EXPLAINIT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  Parser parser(std::move(tokens));
  return parser.ParseAnyStatement();
}

Result<std::unique_ptr<SelectStatement>> Parse(std::string_view query) {
  EXPLAINIT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<ExprPtr> ParseExpression(std::string_view text) {
  EXPLAINIT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneExpression();
}

}  // namespace explainit::sql
