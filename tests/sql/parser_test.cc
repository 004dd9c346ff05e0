#include "sql/parser.h"

#include <gtest/gtest.h>

#include <functional>

#include "sql/logical_plan.h"

namespace explainit::sql {
namespace {

TEST(ParserTest, MinimalSelect) {
  auto stmt = Parse("SELECT 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ((*stmt)->items.size(), 1u);
  EXPECT_FALSE((*stmt)->from.has_value());
}

TEST(ParserTest, SelectStarFrom) {
  auto stmt = Parse("SELECT * FROM tsdb");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE((*stmt)->items[0].is_star);
  EXPECT_EQ((*stmt)->from->table_name, "tsdb");
}

TEST(ParserTest, AliasesExplicitAndImplicit) {
  auto stmt = Parse("SELECT a AS x, b y, c FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->items[0].alias, "x");
  EXPECT_EQ((*stmt)->items[1].alias, "y");
  EXPECT_TRUE((*stmt)->items[2].alias.empty());
}

TEST(ParserTest, PaperTargetMetricQuery) {
  // Listing 1 from Appendix C.
  auto stmt = Parse(R"(
    SELECT timestamp, tag['pipeline_name'], AVG(value) as runtime_sec
    FROM tsdb
    WHERE metric_name = 'pipeline_runtime'
      AND timestamp BETWEEN 100 and 200
    GROUP BY timestamp, tag['pipeline_name']
    ORDER BY timestamp ASC)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStatement& s = **stmt;
  ASSERT_EQ(s.items.size(), 3u);
  EXPECT_EQ(s.items[2].alias, "runtime_sec");
  EXPECT_TRUE(s.items[2].expr->ContainsAggregate());
  EXPECT_EQ(s.items[1].expr->kind, ExprKind::kSubscript);
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.where->binary_op, BinaryOp::kAnd);
  ASSERT_EQ(s.group_by.size(), 2u);
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_TRUE(s.order_by[0].ascending);
}

TEST(ParserTest, PaperProcessQueryWithInAndSplit) {
  // Listing 3 shape.
  auto stmt = Parse(R"(
    SELECT timestamp,
           CONCAT(service_name, SPLIT(hostname, '-')[0]),
           AVG(stime + utime) as cpu
    FROM processes
    WHERE SPLIT(hostname, '-')[0] IN ('web', 'app', 'db', 'pipeline')
      AND timestamp BETWEEN 0 AND 100
    GROUP BY timestamp, CONCAT(service_name, SPLIT(hostname, '-')[0])
    ORDER BY timestamp ASC)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStatement& s = **stmt;
  EXPECT_EQ(s.items[1].expr->kind, ExprKind::kFunction);
  EXPECT_EQ(s.items[1].expr->function_name, "CONCAT");
}

TEST(ParserTest, PaperHypothesisJoinQuery) {
  // Listing 5 shape: UNION subquery + two FULL OUTER JOINs.
  auto stmt = Parse(R"(
    SELECT timestamp, x, y, z
    FROM (SELECT * FROM FF_1 UNION SELECT * FROM FF_2) FF
    FULL OUTER JOIN Target ON (FF.timestamp = Target.timestamp)
    FULL OUTER JOIN Condition ON
      Target.timestamp = Condition.timestamp AND
      Target.pipeline_name = Condition.pipeline_name
    ORDER BY timestamp ASC)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStatement& s = **stmt;
  ASSERT_TRUE(s.from.has_value());
  ASSERT_NE(s.from->subquery, nullptr);
  EXPECT_EQ(s.from->alias, "FF");
  EXPECT_EQ(s.from->subquery->union_all.size(), 1u);
  ASSERT_EQ(s.joins.size(), 2u);
  EXPECT_EQ(s.joins[0].type, JoinType::kFullOuter);
  EXPECT_EQ(s.joins[0].right.table_name, "Target");
  ASSERT_NE(s.joins[1].condition, nullptr);
}

TEST(ParserTest, JoinVariants) {
  for (const char* q : {
           "SELECT * FROM a JOIN b ON a.x = b.x",
           "SELECT * FROM a INNER JOIN b ON a.x = b.x",
           "SELECT * FROM a LEFT JOIN b ON a.x = b.x",
           "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x",
           "SELECT * FROM a CROSS JOIN b",
       }) {
    auto stmt = Parse(q);
    EXPECT_TRUE(stmt.ok()) << q << ": " << stmt.status().ToString();
  }
}

TEST(ParserTest, OperatorPrecedence) {
  auto e = ParseExpression("1 + 2 * 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(1 + (2 * 3))");
  e = ParseExpression("a OR b AND NOT c = 1");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(a OR (b AND NOT (c = 1)))");
}

TEST(ParserTest, UnaryMinus) {
  auto e = ParseExpression("-x + 1");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "(-x + 1)");
}

TEST(ParserTest, BetweenNotBetween) {
  auto e = ParseExpression("t BETWEEN 1 AND 5");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kBetween);
  e = ParseExpression("t NOT BETWEEN 1 AND 5");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE((*e)->negated);
}

TEST(ParserTest, InListAndNotIn) {
  auto e = ParseExpression("h IN ('a', 'b')");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->list.size(), 2u);
  e = ParseExpression("h NOT IN (1, 2, 3)");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE((*e)->negated);
  EXPECT_EQ((*e)->list.size(), 3u);
}

TEST(ParserTest, IsNullIsNotNull) {
  auto e = ParseExpression("x IS NULL");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kIsNull);
  e = ParseExpression("x IS NOT NULL");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE((*e)->negated);
}

TEST(ParserTest, LikeExpression) {
  auto e = ParseExpression("name LIKE 'disk%'");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->binary_op, BinaryOp::kLike);
}

TEST(ParserTest, CaseWhen) {
  auto e = ParseExpression(
      "CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' END");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kCase);
  EXPECT_EQ((*e)->case_branches.size(), 2u);
  ASSERT_NE((*e)->case_else, nullptr);
}

TEST(ParserTest, CountStar) {
  auto stmt = Parse("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->items[0].expr->args[0]->kind, ExprKind::kStar);
}

TEST(ParserTest, LimitAndUnion) {
  auto stmt = Parse("SELECT a FROM t LIMIT 20");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->limit, 20);
  stmt = Parse("SELECT a FROM t UNION ALL SELECT a FROM u UNION SELECT a FROM v");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ((*stmt)->union_all.size(), 2u);
}

TEST(ParserTest, ErrorsCarryPosition) {
  auto stmt = Parse("SELECT FROM");
  ASSERT_FALSE(stmt.ok());
  EXPECT_TRUE(stmt.status().IsParseError());
  EXPECT_NE(stmt.status().message().find("offset"), std::string::npos);
}

TEST(ParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parse("SELECT 1 garbage garbage").ok());
  EXPECT_FALSE(ParseExpression("1 + 2 extra").ok());
}

// ---------------------------------------------------------------------------
// EXPLAIN statements
// ---------------------------------------------------------------------------

TEST(ParserTest, ExplainAllClauses) {
  auto stmt = ParseStatement(
      "EXPLAIN SELECT ts, v FROM target_q "
      "GIVEN SELECT ts, z FROM cond_q "
      "USING SELECT ts, name, v FROM ff "
      "SCORE BY 'L2' TOP 5 BETWEEN 100 AND 200");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ((*stmt)->kind(), StatementKind::kExplain);
  const auto& e = static_cast<const ExplainStatement&>(**stmt);
  ASSERT_NE(e.target, nullptr);
  EXPECT_EQ(e.target->from->table_name, "target_q");
  ASSERT_NE(e.given, nullptr);
  EXPECT_FALSE(e.given_pseudocause);
  ASSERT_NE(e.search_space, nullptr);
  EXPECT_EQ(e.search_space->from->table_name, "ff");
  EXPECT_EQ(e.scorer, "L2");
  EXPECT_EQ(e.top_k, 5);
  EXPECT_EQ(e.between_start, 100);
  EXPECT_EQ(e.between_end, 200);
}

TEST(ParserTest, ExplainMinimalAndPseudocause) {
  auto stmt = ParseStatement(
      "EXPLAIN SELECT ts, v FROM t GIVEN PSEUDOCAUSE "
      "USING SELECT ts, name, v FROM ff");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& e = static_cast<const ExplainStatement&>(**stmt);
  EXPECT_TRUE(e.given_pseudocause);
  EXPECT_EQ(e.given, nullptr);
  EXPECT_TRUE(e.scorer.empty());
  EXPECT_FALSE(e.top_k.has_value());
  EXPECT_FALSE(e.between_start.has_value());
}

TEST(ParserTest, ExplainParenthesisedSubselects) {
  // Parentheses are optional on input and canonical on output; a trailing
  // ORDER BY inside parens cannot swallow the statement-level BETWEEN.
  auto stmt = ParseStatement(
      "EXPLAIN (SELECT ts, v FROM t) "
      "USING (SELECT ts, name, v FROM ff ORDER BY v DESC) "
      "BETWEEN 0 AND 60");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& e = static_cast<const ExplainStatement&>(**stmt);
  ASSERT_EQ(e.search_space->order_by.size(), 1u);
  EXPECT_EQ(e.between_start, 0);
  EXPECT_EQ(e.between_end, 60);
}

TEST(ParserTest, ExplainPrintsToFixpoint) {
  const char* kStatements[] = {
      "EXPLAIN (SELECT ts, v FROM t) USING (SELECT ts, name, v FROM ff)",
      "EXPLAIN (SELECT ts, v FROM t) GIVEN PSEUDOCAUSE "
      "USING (SELECT ts, name, v FROM ff) SCORE BY 'CorrMax' TOP 3",
      "EXPLAIN (SELECT ts, AVG(v) AS y FROM t GROUP BY ts) "
      "GIVEN (SELECT ts, z FROM c) "
      "USING (SELECT ts, name, v FROM ff UNION ALL "
      "SELECT ts, name, v FROM ff2) "
      "SCORE BY 'L2' TOP 20 BETWEEN 100 AND 200",
  };
  for (const char* text : kStatements) {
    SCOPED_TRACE(text);
    auto stmt = ParseStatement(text);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    const std::string sql = ToSql(**stmt);
    auto reparsed = ParseStatement(sql);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(ToSql(**reparsed), sql);
  }
}

TEST(ParserTest, ExplainRequiresUsing) {
  auto stmt = ParseStatement("EXPLAIN SELECT ts, v FROM t");
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("USING"), std::string::npos);
}

TEST(ParserTest, MalformedExplainUsingPointsAtClause) {
  // The offending clause and its position (line/column) are in the error.
  auto stmt = ParseStatement(
      "EXPLAIN SELECT ts, v FROM t\n"
      "USING 42");
  ASSERT_FALSE(stmt.ok());
  const std::string msg = stmt.status().message();
  EXPECT_NE(msg.find("USING clause"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 7"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'42'"), std::string::npos) << msg;
}

TEST(ParserTest, ExplainRejectsBadClauseOperands) {
  EXPECT_FALSE(ParseStatement("EXPLAIN SELECT v FROM t USING SELECT v "
                              "FROM ff SCORE BY L2")
                   .ok());  // scorer must be quoted
  EXPECT_FALSE(ParseStatement("EXPLAIN SELECT v FROM t USING SELECT v "
                              "FROM ff TOP 0")
                   .ok());  // positive count
  EXPECT_FALSE(ParseStatement("EXPLAIN SELECT v FROM t USING SELECT v "
                              "FROM ff BETWEEN 200 AND 100")
                   .ok());  // empty window
  EXPECT_FALSE(ParseStatement("EXPLAIN SELECT v FROM t").ok());
}

TEST(ParserTest, ErrorsCarryLineAndColumn) {
  auto stmt = Parse("SELECT a,\n  FROM t");
  ASSERT_FALSE(stmt.ok());
  const std::string msg = stmt.status().message();
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 3"), std::string::npos) << msg;
}

TEST(ParserTest, SoftKeywordsRemainUsableAsColumns) {
  // The Score Table's own columns (score, ...) stay addressable even
  // though SCORE/TOP/... are reserved at statement level.
  auto stmt = Parse(
      "SELECT family, score FROM scores WHERE score > 0.5 "
      "ORDER BY score DESC");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ((*stmt)->items[1].expr->column, "score");
  EXPECT_EQ((*stmt)->items[1].expr->ToString(), "score");

  auto aliased = Parse("SELECT v AS score, s.top FROM s");
  ASSERT_TRUE(aliased.ok()) << aliased.status().ToString();
  EXPECT_EQ((*aliased)->items[0].alias, "score");
  EXPECT_EQ((*aliased)->items[1].expr->column, "top");

  // Statement-level dispatch still wins at the start of the input.
  EXPECT_TRUE(Parse("SELECT explain FROM t").ok());

  // ... and as table names: a Score Table registered as `score` stays
  // queryable.
  auto from_soft = Parse("SELECT family FROM score");
  ASSERT_TRUE(from_soft.ok()) << from_soft.status().ToString();
  EXPECT_EQ((*from_soft)->from->table_name, "score");
}

TEST(ParserTest, StatementIntegersRejectOverflow) {
  // An out-of-range literal must error, not silently truncate to 0.
  EXPECT_FALSE(ParseStatement("EXPLAIN SELECT v FROM t USING SELECT v "
                              "FROM ff BETWEEN 99999999999999999999 AND 5")
                   .ok());
  EXPECT_FALSE(ParseStatement("EXPLAIN SELECT v FROM t USING SELECT v "
                              "FROM ff TOP 99999999999999999999")
                   .ok());
  // The INT64_MAX edge itself parses (and executes without overflow).
  EXPECT_TRUE(ParseStatement("EXPLAIN SELECT v FROM t USING SELECT v "
                             "FROM ff BETWEEN 0 AND 9223372036854775807")
                  .ok());
}

TEST(ParserTest, ParseRejectsExplainWithPointer) {
  auto stmt = Parse("EXPLAIN SELECT v FROM t USING SELECT v FROM ff");
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("statement"), std::string::npos);
}

TEST(ParserTest, HugeDoubleLiteralIsParseErrorWithPosition) {
  // 1e999 overflows double: std::stod throws std::out_of_range, which
  // must surface as a ParseError pointing at the literal — never as an
  // uncaught exception crossing the library boundary.
  auto stmt = Parse("SELECT\n  1e999");
  ASSERT_FALSE(stmt.ok());
  EXPECT_TRUE(stmt.status().IsParseError()) << stmt.status().ToString();
  const std::string msg = stmt.status().message();
  EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 3"), std::string::npos) << msg;
}

TEST(ParserTest, HugeIntegerLiteralIsParseError) {
  // 20 nines exceed int64: the old unchecked from_chars left the value 0
  // and parsed on — a silently wrong literal in WHERE clauses.
  auto stmt = Parse("SELECT * FROM t WHERE a = 99999999999999999999");
  ASSERT_FALSE(stmt.ok());
  EXPECT_TRUE(stmt.status().IsParseError()) << stmt.status().ToString();
  EXPECT_NE(stmt.status().message().find("out of range"), std::string::npos)
      << stmt.status().message();
}

TEST(ParserTest, Int64EdgeLiteralsParse) {
  auto stmt = Parse("SELECT 9223372036854775807");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  // One past INT64_MAX must be rejected, not wrapped.
  EXPECT_FALSE(Parse("SELECT 9223372036854775808").ok());
}

TEST(ParserTest, LargeButFiniteDoubleLiteralsParse) {
  EXPECT_TRUE(Parse("SELECT 1e308").ok());
  EXPECT_TRUE(Parse("SELECT 1.7976931348623157e308").ok());
  EXPECT_FALSE(Parse("SELECT 1.8e308").ok());  // past DBL_MAX
}

TEST(ParserTest, HugeLimitIsParseError) {
  // Same bug class at the LIMIT clause: out-of-range must not become
  // a silent LIMIT 0.
  auto stmt = Parse("SELECT a FROM t LIMIT 99999999999999999999");
  ASSERT_FALSE(stmt.ok());
  EXPECT_TRUE(stmt.status().IsParseError()) << stmt.status().ToString();
  EXPECT_TRUE(Parse("SELECT a FROM t LIMIT 10").ok());
}

TEST(ParserTest, ExprCloneDeepCopies) {
  auto e = ParseExpression("AVG(a + b['k']) / 2");
  ASSERT_TRUE(e.ok());
  ExprPtr clone = (*e)->Clone();
  EXPECT_EQ(clone->ToString(), (*e)->ToString());
  EXPECT_NE(clone.get(), e->get());
}

// A probe holding a LAG call, an aggregate and a mixed-case column
// reference, placed in each child slot of an Expr in turn: every walker
// built on ast.h's traversal must find it there.
TEST(ParserTest, EveryChildSlotIsWalked) {
  const std::string probe = "SUM(LAG(Q.MixedCol))";
  struct Placement {
    const char* slot;
    std::string sql;
    std::function<const Expr*(const Expr&)> find;
  };
  const std::vector<Placement> placements = {
      {"left", probe + " + 1", [](const Expr& e) { return e.left.get(); }},
      {"right", "1 + " + probe, [](const Expr& e) { return e.right.get(); }},
      {"between_lo", "1 BETWEEN " + probe + " AND 2",
       [](const Expr& e) { return e.between_lo.get(); }},
      {"between_hi", "1 BETWEEN 0 AND " + probe,
       [](const Expr& e) { return e.between_hi.get(); }},
      {"case_else", "CASE WHEN 1 THEN 2 ELSE " + probe + " END",
       [](const Expr& e) { return e.case_else.get(); }},
      {"args", "COALESCE(1, " + probe + ")",
       [](const Expr& e) { return e.args[1].get(); }},
      {"list", "1 IN (2, " + probe + ")",
       [](const Expr& e) { return e.list[1].get(); }},
      {"case condition", "CASE WHEN " + probe + " THEN 1 END",
       [](const Expr& e) { return e.case_branches[0].condition.get(); }},
      {"case result", "CASE WHEN 1 THEN " + probe + " END",
       [](const Expr& e) { return e.case_branches[0].result.get(); }},
  };
  // First the traversal itself, so a dropped slot fails here rather than
  // crashing a walker that relies on it.
  std::vector<ExprPtr> hosts;
  for (const Placement& p : placements) {
    SCOPED_TRACE(p.slot);
    auto parsed = ParseExpression(p.sql);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Expr& host = **parsed;
    const Expr* target = p.find(host);
    ASSERT_NE(target, nullptr);
    ASSERT_EQ(target->ToString(), probe);
    bool reached = false;
    ForEachChild(static_cast<const Expr&>(host),
                 [&](const Expr& c) { reached = reached || &c == target; });
    EXPECT_TRUE(reached);
    bool reached_mutable = false;
    ForEachChild(host, [&](Expr& c) {
      reached_mutable = reached_mutable || &c == target;
    });
    EXPECT_TRUE(reached_mutable);
    hosts.push_back(std::move(parsed).value());
  }
  ASSERT_FALSE(::testing::Test::HasFailure());
  for (size_t i = 0; i < placements.size(); ++i) {
    SCOPED_TRACE(placements[i].slot);
    const Expr& host = *hosts[i];
    EXPECT_TRUE(ContainsLag(host));
    EXPECT_TRUE(host.ContainsAggregate());
    std::vector<const Expr*> aggs;
    CollectAggregates(host, &aggs);
    ASSERT_EQ(aggs.size(), 1u);
    EXPECT_EQ(aggs[0], placements[i].find(host));
    EXPECT_EQ(host.Clone()->ToString(), host.ToString());
    const std::string normalized = NormalizedExprText(host);
    EXPECT_NE(normalized.find("q.mixedcol"), std::string::npos) << normalized;
    EXPECT_EQ(normalized.find("MixedCol"), std::string::npos) << normalized;
  }
}

// ---------------------------------------------------------------------------
// Statement nesting cap
// ---------------------------------------------------------------------------

std::string Repeat(const std::string& s, size_t n) {
  std::string out;
  for (size_t i = 0; i < n; ++i) out += s;
  return out;
}

/// Every way a statement nests, as a function writing one n levels deep.
struct NestingShape {
  const char* name;
  std::function<std::string(size_t)> build;
};

std::vector<NestingShape> NestingShapes() {
  return {
      {"parentheses",
       [](size_t n) {
         return "SELECT " + Repeat("(", n) + "1" + Repeat(")", n);
       }},
      {"function arguments",
       [](size_t n) {
         return "SELECT " + Repeat("ABS(", n) + "1" + Repeat(")", n);
       }},
      {"CASE",
       [](size_t n) {
         return "SELECT " + Repeat("CASE WHEN 1 THEN ", n) + "1" +
                Repeat(" END", n);
       }},
      {"IN lists",
       [](size_t n) {
         return "SELECT " + Repeat("1 IN (", n) + "1" + Repeat(")", n);
       }},
      {"NOT", [](size_t n) { return "SELECT " + Repeat("NOT ", n) + "TRUE"; }},
      {"unary minus",
       [](size_t n) { return "SELECT " + Repeat("- ", n) + "1"; }},
      {"OR fold",
       [](size_t n) { return "SELECT TRUE" + Repeat(" OR TRUE", n); }},
      {"AND fold",
       [](size_t n) { return "SELECT TRUE" + Repeat(" AND TRUE", n); }},
      {"comparisons",
       [](size_t n) {
         return "SELECT " + Repeat("(", n - 1) + "1" + Repeat(" = 1)", n - 1) +
                " = 1";
       }},
      {"+ fold", [](size_t n) { return "SELECT 1" + Repeat(" + 1", n); }},
      {"* fold", [](size_t n) { return "SELECT 1" + Repeat(" * 1", n); }},
      {"subscripts",
       [](size_t n) { return "SELECT tag" + Repeat("['k']", n); }},
      {"sub-selects",
       [](size_t n) {
         return Repeat("SELECT * FROM (", n) + "SELECT 1" + Repeat(")", n);
       }},
      {"EXPLAIN sub-selects",
       [](size_t n) {
         return "EXPLAIN (" + Repeat("SELECT * FROM (", n - 1) + "SELECT 1" +
                Repeat(")", n - 1) + ") USING (SELECT 1)";
       }},
  };
}

TEST(ParserTest, StatementsAtTheNestingCapParseAndRoundTrip) {
  for (const NestingShape& shape : NestingShapes()) {
    SCOPED_TRACE(shape.name);
    auto stmt = ParseStatement(shape.build(kMaxNestingDepth));
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    // A standing monitor deep-copies its statement through ToSql, so the
    // printed form of an accepted statement must be accepted again.
    const std::string printed = ToSql(**stmt);
    auto reparsed = ParseStatement(printed);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(ToSql(**reparsed), printed);
  }
}

TEST(ParserTest, StatementsPastTheNestingCapArePositionedParseErrors) {
  for (const NestingShape& shape : NestingShapes()) {
    SCOPED_TRACE(shape.name);
    auto stmt = ParseStatement(shape.build(kMaxNestingDepth + 1));
    ASSERT_FALSE(stmt.ok());
    EXPECT_TRUE(stmt.status().IsParseError()) << stmt.status().ToString();
    EXPECT_NE(stmt.status().message().find("nests deeper than 256 levels"),
              std::string::npos)
        << stmt.status().message();
    EXPECT_NE(stmt.status().message().find("line 1, column"),
              std::string::npos)
        << stmt.status().message();
  }
}

TEST(ParserTest, HostileNestingIsAParseErrorNotACrash) {
  const std::vector<std::string> hostile = {
      "SELECT " + Repeat("(", 5000) + "1" + Repeat(")", 5000),
      "SELECT 1" + Repeat("+1", 50000),
      "SELECT " + Repeat("NOT ", 5000) + "TRUE",
      Repeat("SELECT * FROM (", 5000) + "SELECT 1" + Repeat(")", 5000),
  };
  for (const std::string& sql : hostile) {
    auto stmt = ParseStatement(sql);
    ASSERT_FALSE(stmt.ok());
    EXPECT_TRUE(stmt.status().IsParseError()) << stmt.status().ToString();
  }
  // Wide is not deep: a long IN list stays one level.
  auto wide = ParseStatement("SELECT 1 IN (" + Repeat("1, ", 50000) + "1)");
  EXPECT_TRUE(wide.ok()) << wide.status().ToString();
}

// ---------------------------------------------------------------------------
// Standing-query (monitor) grammar
// ---------------------------------------------------------------------------

TEST(ParserTest, ExplainMonitorClauses) {
  auto stmt = ParseStatement(
      "EXPLAIN SELECT ts, v FROM t "
      "USING SELECT ts, name, v FROM ff "
      "BETWEEN 0 AND 3599 EVERY 10m TRIGGERED INTO hist");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ((*stmt)->kind(), StatementKind::kExplain);
  const auto& e = static_cast<const ExplainStatement&>(**stmt);
  ASSERT_TRUE(e.every_seconds.has_value());
  EXPECT_EQ(*e.every_seconds, 600);
  EXPECT_TRUE(e.triggered);
  EXPECT_EQ(e.into_table, "hist");
  EXPECT_TRUE(e.is_monitor());
}

TEST(ParserTest, ExplainWithoutMonitorClausesIsNotMonitor) {
  auto stmt = ParseStatement(
      "EXPLAIN SELECT ts, v FROM t USING SELECT ts, name, v FROM ff");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& e = static_cast<const ExplainStatement&>(**stmt);
  EXPECT_FALSE(e.every_seconds.has_value());
  EXPECT_FALSE(e.triggered);
  EXPECT_TRUE(e.into_table.empty());
  EXPECT_FALSE(e.is_monitor());
}

TEST(ParserTest, EveryAcceptsBareIntegerSeconds) {
  auto stmt = ParseStatement(
      "EXPLAIN SELECT ts, v FROM t USING SELECT ts, name, v FROM ff "
      "EVERY 45");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& e = static_cast<const ExplainStatement&>(**stmt);
  EXPECT_EQ(e.every_seconds, 45);
}

TEST(ParserTest, MonitorClausesPrintToFixpoint) {
  // FormatDuration canonicalises the interval (600s -> 10m), then the
  // printed statement must reparse to the identical string.
  const char* kStatements[] = {
      "EXPLAIN (SELECT ts, v FROM t) USING (SELECT ts, name, v FROM ff) "
      "BETWEEN 0 AND 3599 EVERY 600 INTO hist",
      "EXPLAIN (SELECT ts, v FROM t) USING (SELECT ts, name, v FROM ff) "
      "BETWEEN 0 AND 59 TRIGGERED INTO alert_hist",
      "EXPLAIN (SELECT ts, v FROM t) USING (SELECT ts, name, v FROM ff) "
      "EVERY 2d",
  };
  for (const char* text : kStatements) {
    SCOPED_TRACE(text);
    auto stmt = ParseStatement(text);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    const std::string sql = ToSql(**stmt);
    auto reparsed = ParseStatement(sql);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(ToSql(**reparsed), sql);
  }
  auto stmt = ParseStatement(
      "EXPLAIN SELECT ts, v FROM t USING SELECT ts, name, v FROM ff "
      "EVERY 600");
  ASSERT_TRUE(stmt.ok());
  EXPECT_NE(ToSql(**stmt).find("EVERY 10m"), std::string::npos)
      << ToSql(**stmt);
}

TEST(ParserTest, MonitorClauseErrors) {
  auto zero = ParseStatement(
      "EXPLAIN SELECT v FROM t USING SELECT v FROM ff EVERY 0");
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("positive interval"),
            std::string::npos)
      << zero.status().message();
  auto bare_into = ParseStatement(
      "EXPLAIN SELECT v FROM t USING SELECT v FROM ff INTO hist");
  ASSERT_FALSE(bare_into.ok());
  EXPECT_NE(bare_into.status().message().find("INTO requires EVERY"),
            std::string::npos)
      << bare_into.status().message();
  // Monitor clauses only attach to EXPLAIN, never plain SELECT.
  EXPECT_FALSE(ParseStatement("SELECT v FROM t EVERY 30s").ok());
}

TEST(ParserTest, DropMonitorStatement) {
  auto stmt = ParseStatement("DROP MONITOR lat_watch");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ((*stmt)->kind(), StatementKind::kDropMonitor);
  const auto& d = static_cast<const DropMonitorStatement&>(**stmt);
  EXPECT_EQ(d.name, "lat_watch");
  EXPECT_EQ(ToSql(d), "DROP MONITOR lat_watch");
  EXPECT_FALSE(ParseStatement("DROP MONITOR").ok());
  EXPECT_FALSE(ParseStatement("DROP MONITOR a b").ok());
}

TEST(ParserTest, ShowMonitorsStatement) {
  auto stmt = ParseStatement("SHOW MONITORS");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ((*stmt)->kind(), StatementKind::kShowMonitors);
  EXPECT_EQ(ToSql(static_cast<const ShowMonitorsStatement&>(**stmt)),
            "SHOW MONITORS");
  EXPECT_FALSE(ParseStatement("SHOW MONITORS please").ok());
}

TEST(ParserTest, DurationLiteralUsableInExpressions) {
  // A duration token is an integer literal (seconds) anywhere an
  // expression wants one, e.g. bucketing: ts - ts % 5m.
  auto e = ParseExpression("ts - ts % 5m");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_NE((*e)->ToString().find("300"), std::string::npos)
      << (*e)->ToString();
}

}  // namespace
}  // namespace explainit::sql
