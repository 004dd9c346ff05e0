#include "sql/executor.h"

#include <gtest/gtest.h>

#include "core/feature_family.h"
#include "sql/parser.h"
#include "tsdb/store.h"

namespace explainit::sql {
namespace {

using table::DataType;
using table::Field;
using table::Schema;
using table::Table;
using table::Value;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    functions_ = FunctionRegistry::Builtins();

    // A small metrics table mirroring the tsdb scan shape.
    Schema metric_schema({{"timestamp", DataType::kTimestamp},
                          {"metric_name", DataType::kString},
                          {"tag", DataType::kMap},
                          {"value", DataType::kDouble}});
    Table metrics(metric_schema);
    auto add = [&](int64_t ts, const std::string& name,
                   const std::string& pipeline, double v) {
      table::ValueMap m;
      m["pipeline_name"] = Value::String(pipeline);
      metrics.AppendRow({Value::Timestamp(ts), Value::String(name),
                         Value::Map(m), Value::Double(v)});
    };
    add(0, "pipeline_runtime", "p1", 10);
    add(0, "pipeline_runtime", "p2", 20);
    add(60, "pipeline_runtime", "p1", 12);
    add(60, "pipeline_runtime", "p2", 22);
    add(120, "pipeline_runtime", "p1", 14);
    add(0, "pipeline_input_rate", "p1", 100);
    add(60, "pipeline_input_rate", "p1", 110);
    catalog_.RegisterTable("tsdb", std::move(metrics));

    // Process table for the Listing 3 shape.
    Schema proc_schema({{"timestamp", DataType::kTimestamp},
                        {"hostname", DataType::kString},
                        {"service_name", DataType::kString},
                        {"stime", DataType::kDouble},
                        {"utime", DataType::kDouble}});
    Table procs(proc_schema);
    auto addp = [&](int64_t ts, const std::string& host,
                    const std::string& svc, double s, double u) {
      procs.AppendRow({Value::Timestamp(ts), Value::String(host),
                       Value::String(svc), Value::Double(s),
                       Value::Double(u)});
    };
    addp(0, "web-1", "nginx", 1, 2);
    addp(0, "web-2", "nginx", 2, 3);
    addp(0, "db-1", "postgres", 5, 5);
    addp(0, "gpu-1", "trainer", 9, 9);
    catalog_.RegisterTable("processes", std::move(procs));

    executor_ = std::make_unique<Executor>(&catalog_, &functions_);
  }

  Table MustQuery(const std::string& q) {
    auto res = executor_->Query(q);
    EXPECT_TRUE(res.ok()) << q << " -> " << res.status().ToString();
    return res.ok() ? std::move(res).value() : Table{};
  }

  Catalog catalog_;
  FunctionRegistry functions_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, SelectConstantNoFrom) {
  Table t = MustQuery("SELECT 1 + 2 AS three");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsDouble(), 3.0);
  EXPECT_EQ(t.schema().field(0).name, "three");
}

TEST_F(ExecutorTest, SelectStar) {
  Table t = MustQuery("SELECT * FROM processes");
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_columns(), 5u);
}

TEST_F(ExecutorTest, WhereFilter) {
  Table t = MustQuery(
      "SELECT value FROM tsdb WHERE metric_name = 'pipeline_input_rate'");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0).AsDouble(), 100.0);
}

TEST_F(ExecutorTest, MapSubscriptProjection) {
  Table t = MustQuery(
      "SELECT tag['pipeline_name'] AS p FROM tsdb WHERE value = 14");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsString(), "p1");
}

TEST_F(ExecutorTest, PaperListing1TargetQuery) {
  Table t = MustQuery(R"(
      SELECT timestamp, tag['pipeline_name'] AS pipeline_name,
             AVG(value) as runtime_sec
      FROM tsdb
      WHERE metric_name = 'pipeline_runtime'
        AND timestamp BETWEEN 0 AND 120
      GROUP BY timestamp, tag['pipeline_name']
      ORDER BY timestamp ASC)");
  ASSERT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.schema().field(2).name, "runtime_sec");
  // First two rows are timestamp 0 (p1, p2 insertion order).
  EXPECT_EQ(t.At(0, 0).AsTimestamp(), 0);
  EXPECT_EQ(t.At(0, 2).AsDouble(), 10.0);
  EXPECT_EQ(t.At(4, 0).AsTimestamp(), 120);
}

TEST_F(ExecutorTest, GroupByWithSplitAndIn) {
  Table t = MustQuery(R"(
      SELECT SPLIT(hostname, '-')[0] AS grp, AVG(stime + utime) AS cpu
      FROM processes
      WHERE SPLIT(hostname, '-')[0] IN ('web', 'db')
      GROUP BY SPLIT(hostname, '-')[0]
      ORDER BY grp ASC)");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0).AsString(), "db");
  EXPECT_EQ(t.At(0, 1).AsDouble(), 10.0);
  EXPECT_EQ(t.At(1, 0).AsString(), "web");
  EXPECT_EQ(t.At(1, 1).AsDouble(), 4.0);  // (3 + 5) / 2
}

TEST_F(ExecutorTest, GlobalAggregatesWithoutGroupBy) {
  Table t = MustQuery(
      "SELECT COUNT(*) AS n, MIN(value) AS lo, MAX(value) AS hi, "
      "SUM(value) AS total FROM tsdb");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsInt(), 7);
  EXPECT_EQ(t.At(0, 1).AsDouble(), 10.0);
  EXPECT_EQ(t.At(0, 2).AsDouble(), 110.0);
  EXPECT_EQ(t.At(0, 3).AsDouble(), 288.0);
}

TEST_F(ExecutorTest, AggregateArithmetic) {
  Table t = MustQuery(
      "SELECT MAX(value) - MIN(value) AS spread FROM tsdb "
      "WHERE metric_name = 'pipeline_runtime'");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsDouble(), 12.0);  // 22 - 10
}

TEST_F(ExecutorTest, PercentileAggregate) {
  Table t = MustQuery(
      "SELECT PERCENTILE(value, 50) AS p50 FROM tsdb "
      "WHERE metric_name = 'pipeline_runtime'");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsDouble(), 14.0);  // median of 10,12,14,20,22
}

TEST_F(ExecutorTest, StddevAggregate) {
  Table t = MustQuery(
      "SELECT STDDEV(stime) AS sd FROM processes WHERE hostname LIKE 'web%'");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_NEAR(t.At(0, 0).AsDouble(), 0.5, 1e-12);
}

TEST_F(ExecutorTest, HavingFiltersGroups) {
  Table t = MustQuery(R"(
      SELECT tag['pipeline_name'] AS p, COUNT(*) AS n
      FROM tsdb WHERE metric_name = 'pipeline_runtime'
      GROUP BY tag['pipeline_name']
      HAVING COUNT(*) > 2)");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsString(), "p1");
}

TEST_F(ExecutorTest, OrderByDescAndLimit) {
  Table t = MustQuery(
      "SELECT value FROM tsdb ORDER BY value DESC LIMIT 2");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0).AsDouble(), 110.0);
  EXPECT_EQ(t.At(1, 0).AsDouble(), 100.0);
}

TEST_F(ExecutorTest, OrderByUnprojectedColumn) {
  // ORDER BY references a column not in the select list.
  Table t = MustQuery(
      "SELECT metric_name FROM tsdb ORDER BY value DESC LIMIT 1");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsString(), "pipeline_input_rate");
}

TEST_F(ExecutorTest, InnerJoinOnTimestamp) {
  // Join runtimes with input rates per timestamp.
  catalog_.RegisterTable(
      "runtimes",
      MustQuery("SELECT timestamp, AVG(value) AS runtime FROM tsdb "
                "WHERE metric_name = 'pipeline_runtime' GROUP BY timestamp"));
  catalog_.RegisterTable(
      "rates",
      MustQuery("SELECT timestamp, AVG(value) AS rate FROM tsdb "
                "WHERE metric_name = 'pipeline_input_rate' GROUP BY "
                "timestamp"));
  Table t = MustQuery(R"(
      SELECT r.timestamp, r.runtime, i.rate
      FROM runtimes r JOIN rates i ON r.timestamp = i.timestamp
      ORDER BY r.timestamp ASC)");
  ASSERT_EQ(t.num_rows(), 2u);  // rates only exist at ts 0, 60
  EXPECT_EQ(t.At(0, 1).AsDouble(), 15.0);
  EXPECT_EQ(t.At(0, 2).AsDouble(), 100.0);
}

TEST_F(ExecutorTest, FullOuterJoinPadsBothSides) {
  Schema sa({{"k", DataType::kInt64}, {"a", DataType::kString}});
  Table ta(sa);
  ta.AppendRow({Value::Int(1), Value::String("a1")});
  ta.AppendRow({Value::Int(2), Value::String("a2")});
  catalog_.RegisterTable("ta", std::move(ta));
  Schema sb({{"k", DataType::kInt64}, {"b", DataType::kString}});
  Table tb(sb);
  tb.AppendRow({Value::Int(2), Value::String("b2")});
  tb.AppendRow({Value::Int(3), Value::String("b3")});
  catalog_.RegisterTable("tb", std::move(tb));
  Table t = MustQuery(R"(
      SELECT ta.k, a, b FROM ta FULL OUTER JOIN tb ON ta.k = tb.k
      ORDER BY ta.k ASC)");
  ASSERT_EQ(t.num_rows(), 3u);
  // Unmatched right row has null left key and sorts first.
  EXPECT_TRUE(t.At(0, 0).is_null());
  EXPECT_EQ(t.At(0, 2).AsString(), "b3");
  EXPECT_EQ(t.At(1, 1).AsString(), "a1");
  EXPECT_TRUE(t.At(1, 2).is_null());
  EXPECT_EQ(t.At(2, 1).AsString(), "a2");
  EXPECT_EQ(t.At(2, 2).AsString(), "b2");
}

TEST_F(ExecutorTest, LeftJoinKeepsUnmatchedLeft) {
  Schema sa({{"k", DataType::kInt64}});
  Table ta(sa);
  ta.AppendRow({Value::Int(1)});
  ta.AppendRow({Value::Int(2)});
  catalog_.RegisterTable("la", std::move(ta));
  Schema sb({{"k2", DataType::kInt64}});
  Table tb(sb);
  tb.AppendRow({Value::Int(2)});
  catalog_.RegisterTable("lb", std::move(tb));
  Table t = MustQuery(
      "SELECT k, k2 FROM la LEFT JOIN lb ON k = k2 ORDER BY k ASC");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_TRUE(t.At(0, 1).is_null());
  EXPECT_EQ(t.At(1, 1).AsInt(), 2);
}

TEST_F(ExecutorTest, CrossJoin) {
  Schema s({{"v", DataType::kInt64}});
  Table ta(s), tb(s);
  ta.AppendRow({Value::Int(1)});
  ta.AppendRow({Value::Int(2)});
  tb.AppendRow({Value::Int(10)});
  tb.AppendRow({Value::Int(20)});
  catalog_.RegisterTable("ca", std::move(ta));
  catalog_.RegisterTable("cb", std::move(tb));
  Table t = MustQuery("SELECT * FROM ca CROSS JOIN cb");
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST_F(ExecutorTest, NonEquiJoinRunsAsZeroKeyHashJoin) {
  Schema s({{"v", DataType::kInt64}});
  Table ta(s), tb(s);
  ta.AppendRow({Value::Int(1)});
  ta.AppendRow({Value::Int(5)});
  tb.AppendRow({Value::Int(3)});
  catalog_.RegisterTable("na", std::move(ta));
  catalog_.RegisterTable("nb", std::move(tb));
  executor_->ResetStats();
  Table t = MustQuery(
      "SELECT na.v, nb.v FROM na JOIN nb ON na.v < nb.v");
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(executor_->stats().nested_loop_joins, 1u);
  EXPECT_EQ(executor_->stats().hash_joins, 0u);
  const OperatorStats* join = nullptr;
  for (const OperatorStats& op : executor_->last_stats().operators) {
    if (op.name == "HashJoin") join = &op;
  }
  ASSERT_NE(join, nullptr);
  EXPECT_NE(join->detail.find("keys=0"), std::string::npos) << join->detail;
}

TEST_F(ExecutorTest, EquiJoinUsesHashJoin) {
  executor_->ResetStats();
  MustQuery(
      "SELECT * FROM processes a JOIN processes b ON a.hostname = "
      "b.hostname");
  EXPECT_EQ(executor_->stats().hash_joins, 1u);
}

TEST_F(ExecutorTest, UnionAllStacksRows) {
  Table t = MustQuery(
      "SELECT value FROM tsdb WHERE value = 10 "
      "UNION ALL SELECT value FROM tsdb WHERE value = 20");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(ExecutorTest, SubqueryInFrom) {
  Table t = MustQuery(R"(
      SELECT grp, cpu FROM (
        SELECT SPLIT(hostname, '-')[0] AS grp, stime + utime AS cpu
        FROM processes
      ) sub
      WHERE cpu > 5 ORDER BY cpu DESC)");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0).AsString(), "gpu");
}

TEST_F(ExecutorTest, LagFunction) {
  Table t = MustQuery(
      "SELECT value - LAG(value) AS diff FROM tsdb "
      "WHERE metric_name = 'pipeline_input_rate'");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_TRUE(t.At(0, 0).is_null());  // no previous row
  EXPECT_EQ(t.At(1, 0).AsDouble(), 10.0);
}

TEST_F(ExecutorTest, CaseExpression) {
  Table t = MustQuery(R"(
      SELECT CASE WHEN value >= 100 THEN 'rate' ELSE 'runtime' END AS kind,
             COUNT(*) AS n
      FROM tsdb GROUP BY CASE WHEN value >= 100 THEN 'rate' ELSE 'runtime' END
      ORDER BY kind ASC)");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0).AsString(), "rate");
  EXPECT_EQ(t.At(0, 1).AsInt(), 2);
  EXPECT_EQ(t.At(1, 1).AsInt(), 5);
}

TEST_F(ExecutorTest, HostgroupUdf) {
  Table t = MustQuery(
      "SELECT HOSTGROUP(hostname) AS g FROM processes WHERE hostname = "
      "'web-1'");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsString(), "web");
}

TEST_F(ExecutorTest, CustomUdfRegistration) {
  functions_.Register("DOUBLE_IT", [](const std::vector<Value>& args)
                                       -> Result<Value> {
    return Value::Double(args[0].AsDouble() * 2.0);
  });
  Table t = MustQuery("SELECT DOUBLE_IT(21) AS v");
  EXPECT_EQ(t.At(0, 0).AsDouble(), 42.0);
}

TEST_F(ExecutorTest, MapBuildsKeyedValues) {
  Table t = MustQuery("SELECT MAP('a', 1, 'b', 2) AS m");
  ASSERT_EQ(t.num_rows(), 1u);
  const table::ValueMap* m = t.At(0, 0).AsMap();
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->size(), 2u);
  EXPECT_EQ(m->at("a").AsDouble(), 1.0);
  EXPECT_EQ(m->at("b").AsDouble(), 2.0);
}

TEST_F(ExecutorTest, MapKeysAreTheKeyText) {
  // A non-string key is keyed by its text; CONCAT renders a series as
  // metric{tag=value}, the §3.2 feature name.
  Table t = MustQuery(
      "SELECT MAP(value, 'v', CONCAT(metric_name, tag), value) AS m "
      "FROM tsdb WHERE value = 14");
  ASSERT_EQ(t.num_rows(), 1u);
  const table::ValueMap* m = t.At(0, 0).AsMap();
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->size(), 2u);
  EXPECT_EQ(m->at("14.0").AsString(), "v");
  EXPECT_EQ(m->at("pipeline_runtime{pipeline_name=p1}").AsDouble(), 14.0);
}

TEST_F(ExecutorTest, MapRepeatedKeyKeepsTheLaterValue) {
  Table t = MustQuery("SELECT MAP('a', 1, 'a', 2) AS m");
  const table::ValueMap* m = t.At(0, 0).AsMap();
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->size(), 1u);
  EXPECT_EQ(m->at("a").AsDouble(), 2.0);
}

TEST_F(ExecutorTest, MapRejectsAnOddArgumentCount) {
  auto res = executor_->Query("SELECT MAP('a', 1, 'b') AS m");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsInvalidArgument()) << res.status().ToString();
}

TEST_F(ExecutorTest, MapNullValueIsAMissingFeatureCell) {
  Table t = MustQuery(
      "SELECT timestamp AS ts, MAP('x', NULLIF(value, 12)) AS v FROM tsdb "
      "WHERE metric_name = 'pipeline_runtime' AND tag['pipeline_name'] = 'p1' "
      "ORDER BY timestamp ASC");
  ASSERT_EQ(t.num_rows(), 3u);
  const table::ValueMap* m = t.At(1, 1).AsMap();
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->at("x").is_null());
  // The family builder fills the NULL cell from the nearest observation
  // (the earlier one on a tie).
  auto fams = core::FamiliesFromTable(t);
  ASSERT_TRUE(fams.ok()) << fams.status().ToString();
  ASSERT_EQ(fams->size(), 1u);
  EXPECT_EQ((*fams)[0].feature_names, std::vector<std::string>{"x"});
  EXPECT_EQ((*fams)[0].data, la::Matrix(3, 1, {10, 10, 14}));
}

// The parser's nesting cap bounds every recursive walk downstream:
// statements exactly at the cap plan, execute and tear down (the ASan
// build runs this with its larger frames).
TEST_F(ExecutorTest, StatementsAtTheNestingCapExecute) {
  auto repeat = [](const std::string& s, size_t n) {
    std::string out;
    for (size_t i = 0; i < n; ++i) out += s;
    return out;
  };
  const size_t n = kMaxNestingDepth;
  Table sum = MustQuery("SELECT 1" + repeat(" + 1", n) + " AS s");
  ASSERT_EQ(sum.num_rows(), 1u);
  EXPECT_EQ(sum.At(0, 0).AsDouble(), static_cast<double>(n + 1));
  Table nots = MustQuery("SELECT " + repeat("NOT ", n) + "TRUE AS b");
  ASSERT_EQ(nots.num_rows(), 1u);
  EXPECT_EQ(nots.At(0, 0).ToString(), Value::Bool(n % 2 == 0).ToString());
  Table cases = MustQuery("SELECT " + repeat("CASE WHEN TRUE THEN ", n) +
                          "7" + repeat(" END", n) + " AS c");
  ASSERT_EQ(cases.num_rows(), 1u);
  EXPECT_EQ(cases.At(0, 0).AsDouble(), 7.0);
  Table nested = MustQuery(repeat("SELECT * FROM (", n) +
                           "SELECT value FROM tsdb" + repeat(")", n));
  EXPECT_EQ(nested.num_rows(), 7u);
  // Grouped: aggregate lifting, aggregate collection and group checks.
  Table grouped = MustQuery("SELECT metric_name, SUM(value)" +
                            repeat(" + 1", n - 1) +
                            " AS s FROM tsdb GROUP BY metric_name "
                            "ORDER BY metric_name");
  ASSERT_EQ(grouped.num_rows(), 2u);
  EXPECT_EQ(grouped.At(0, 1).AsDouble(), 210.0 + static_cast<double>(n - 1));
  EXPECT_EQ(grouped.At(1, 1).AsDouble(), 78.0 + static_cast<double>(n - 1));
}

TEST_F(ExecutorTest, UnknownTableFails) {
  auto res = executor_->Query("SELECT * FROM missing");
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsNotFound());
}

TEST_F(ExecutorTest, UnknownColumnFails) {
  auto res = executor_->Query("SELECT nope FROM tsdb");
  EXPECT_FALSE(res.ok());
}

TEST_F(ExecutorTest, UnknownFunctionFails) {
  auto res = executor_->Query("SELECT WAT(1) FROM tsdb");
  EXPECT_FALSE(res.ok());
}

/// Runs `q` at parallelism 1 and 4 and returns the status text of each
/// (or "OK <rows> rows").
std::vector<std::string> Outcomes(const Catalog& catalog,
                                  const FunctionRegistry& functions,
                                  const std::string& q) {
  std::vector<std::string> out;
  for (size_t p : {1, 4}) {
    Executor exec(&catalog, &functions, p);
    auto res = exec.Query(q);
    out.push_back(res.ok() ? "OK " + std::to_string(res->num_rows()) + " rows"
                           : res.status().ToString());
  }
  return out;
}

TEST_F(ExecutorTest, SubscriptOnNonMapFailsInEveryStage) {
  // WHERE, a GROUP BY key, an aggregate argument, a non-decomposable
  // aggregate's argument and a select item all report the same error.
  for (const char* q : {
           "SELECT value FROM tsdb WHERE metric_name['x'] = 'a'",
           "SELECT value FROM tsdb WHERE 'a' = metric_name['x']",
           "SELECT metric_name['x'] AS k, COUNT(*) AS n FROM tsdb "
           "GROUP BY metric_name['x']",
           "SELECT SUM(metric_name['x']) AS s FROM tsdb",
           "SELECT STDDEV(metric_name['x']) AS s FROM tsdb",
           "SELECT metric_name['x'] AS k FROM tsdb",
       }) {
    for (const std::string& got : Outcomes(catalog_, functions_, q)) {
      EXPECT_EQ(got, "InvalidArgument: subscript on non-map value") << q;
    }
  }
}

TEST_F(ExecutorTest, UnknownColumnFailsOnlyWhenARowEvaluatesIt) {
  for (const char* q : {
           "SELECT nope FROM tsdb",
           "SELECT value FROM tsdb WHERE nope = 1",
           "SELECT value FROM tsdb WHERE 1 = nope",
           "SELECT nope AS k, COUNT(*) AS n FROM tsdb GROUP BY nope",
           "SELECT SUM(nope) AS s FROM tsdb GROUP BY metric_name",
       }) {
    for (const std::string& got : Outcomes(catalog_, functions_, q)) {
      EXPECT_EQ(got, "NotFound: column not found: nope") << q;
    }
  }
  // No row reaches the unknown name: an empty input, or a conjunct
  // that is false first.
  for (const char* q : {
           "SELECT nope FROM tsdb WHERE value > 1000",
           "SELECT value FROM tsdb WHERE value > 1000 AND nope = 1",
           "SELECT nope AS k, SUM(value) AS s FROM tsdb WHERE value > 1000 "
           "GROUP BY nope",
       }) {
    for (const std::string& got : Outcomes(catalog_, functions_, q)) {
      EXPECT_EQ(got, "OK 0 rows") << q;
    }
  }
}

TEST_F(ExecutorTest, HavingDropsTheGroupWhoseAggregateArgumentErrors) {
  // Group 'b' holds a string where a map is read, so its SUM argument
  // errors; group 'a' holds NULL maps, so its SUM is NULL. A HAVING that
  // drops 'b' never consults the error.
  Table mixed(Schema({{"g", DataType::kString}, {"m", DataType::kMap}}));
  mixed.AppendRow({Value::String("a"), Value::Null()});
  mixed.AppendRow({Value::String("a"), Value::Null()});
  mixed.AppendRow({Value::String("b"), Value::String("x")});
  catalog_.RegisterTable("mixed", std::move(mixed));
  for (const std::string& got : Outcomes(
           catalog_, functions_,
           "SELECT g, SUM(m['k']) AS s FROM mixed GROUP BY g "
           "HAVING COUNT(*) > 1")) {
    EXPECT_EQ(got, "OK 1 rows");
  }
  for (const std::string& got :
       Outcomes(catalog_, functions_,
                "SELECT g, SUM(m['k']) AS s FROM mixed GROUP BY g")) {
    EXPECT_EQ(got, "InvalidArgument: subscript on non-map value");
  }
  Table t = MustQuery(
      "SELECT g, SUM(m['k']) AS s FROM mixed GROUP BY g HAVING COUNT(*) > 1");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsString(), "a");
  EXPECT_TRUE(t.At(0, 1).is_null());
}

TEST_F(ExecutorTest, AggregateArgumentErrorOfAGroupFirstSeenInALaterShard) {
  // 8,192 rows of group 'a' and then 8 rows of group 'b', whose SUM
  // argument errors: at parallelism 4 the partial aggregate runs several
  // shards, and 'b' first appears in the last one, so the merge stage
  // inserts it with its error.
  Table big(Schema({{"g", DataType::kString}, {"m", DataType::kMap}}));
  for (int i = 0; i < 8192; ++i) {
    big.AppendRow({Value::String("a"), Value::Null()});
  }
  for (int i = 0; i < 8; ++i) {
    big.AppendRow({Value::String("b"), Value::String("x")});
  }
  catalog_.RegisterTable("big", std::move(big));
  for (const std::string& got :
       Outcomes(catalog_, functions_,
                "SELECT g, SUM(m['k']) AS s FROM big GROUP BY g")) {
    EXPECT_EQ(got, "InvalidArgument: subscript on non-map value");
  }
  for (const std::string& got : Outcomes(
           catalog_, functions_,
           "SELECT g, SUM(m['k']) AS s FROM big GROUP BY g "
           "HAVING COUNT(*) > 8")) {
    EXPECT_EQ(got, "OK 1 rows");
  }
  // The partial aggregate did split the input.
  Executor exec(&catalog_, &functions_, 4);
  ASSERT_TRUE(exec.Query("SELECT g, SUM(value) AS s FROM (SELECT g, 1 AS "
                         "value FROM big) q GROUP BY g")
                  .ok());
  std::string detail;
  for (const OperatorStats& op : exec.last_stats().operators) {
    if (op.name == "HashAggregate") detail = op.detail;
  }
  EXPECT_EQ(detail, "2 groups (partial, 4 shards)");
}

TEST_F(ExecutorTest, GroupAndJoinKeysAreLossless) {
  // Timestamps 10 s apart, doubles equal to six significant digits, and
  // NULL beside the string 'NULL' are all distinct keys.
  Table keys(Schema({{"ts", DataType::kTimestamp},
                     {"d", DataType::kDouble},
                     {"s", DataType::kString}}));
  keys.AppendRow({Value::Timestamp(0), Value::Double(0.1234561),
                  Value::Null()});
  keys.AppendRow({Value::Timestamp(10), Value::Double(0.1234562),
                  Value::String("NULL")});
  keys.AppendRow({Value::Timestamp(20), Value::Double(0.1234563),
                  Value::Null()});
  catalog_.RegisterTable("keys", std::move(keys));
  Table late(Schema({{"ts", DataType::kTimestamp}}));
  late.AppendRow({Value::Timestamp(50)});
  catalog_.RegisterTable("late", std::move(late));
  // 1 = 1.0 holds, so the integer and the double key join.
  Table ints(Schema({{"i", DataType::kInt64}}));
  ints.AppendRow({Value::Int(1)});
  ints.AppendRow({Value::Double(1.0)});
  catalog_.RegisterTable("ints", std::move(ints));
  Table one(Schema({{"i", DataType::kInt64}}));
  one.AppendRow({Value::Int(1)});
  catalog_.RegisterTable("one", std::move(one));

  const std::pair<const char*, size_t> cases[] = {
      {"SELECT ts, COUNT(*) AS n FROM keys GROUP BY ts", 3},
      {"SELECT d, COUNT(*) AS n FROM keys GROUP BY d", 3},
      {"SELECT s, COUNT(*) AS n FROM keys GROUP BY s", 2},
      {"SELECT ts, d, COUNT(*) AS n FROM keys GROUP BY ts, d", 3},
      {"SELECT s, STDDEV(d) AS sd FROM keys GROUP BY s", 2},
      {"SELECT a.ts FROM keys a JOIN late b ON a.ts = b.ts", 0},
      {"SELECT a.i FROM ints a JOIN one b ON a.i = b.i", 2},
      {"SELECT a.i FROM ints a CROSS JOIN one b WHERE a.i = b.i", 2},
  };
  for (const auto& [q, rows] : cases) {
    for (const std::string& got : Outcomes(catalog_, functions_, q)) {
      EXPECT_EQ(got, "OK " + std::to_string(rows) + " rows") << q;
    }
  }
}

TEST_F(ExecutorTest, LagOffsetsOutOfRangeYieldNull) {
  // Offsets no row index can reach — huge, non-finite, or the most
  // negative integer — read no row.
  for (const char* q : {
           "SELECT LAG(value, 1e300) AS l FROM tsdb",
           "SELECT LAG(value, 0 - 1e300) AS l FROM tsdb",
           "SELECT LAG(value, 0 - 9223372036854775807 - 1) AS l FROM tsdb",
           "SELECT LAG(value, 9223372036854775807) AS l FROM tsdb",
           "SELECT LAG(value, 1e300 * 1e300) AS l FROM tsdb",
           "SELECT LAG(value, (1e300 * 1e300) - (1e300 * 1e300)) AS l "
           "FROM tsdb",
       }) {
    Table t = MustQuery(q);
    ASSERT_EQ(t.num_rows(), 7u) << q;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_TRUE(t.At(r, 0).is_null()) << q << " row " << r;
    }
  }
  // In range, LAG still reads its neighbour both ways.
  Table t = MustQuery("SELECT value, LAG(value, 0 - 1) AS next FROM tsdb");
  ASSERT_EQ(t.num_rows(), 7u);
  EXPECT_EQ(t.At(0, 1).AsDouble(), t.At(1, 0).AsDouble());
  EXPECT_TRUE(t.At(6, 1).is_null());
}

TEST_F(ExecutorTest, OrderByUnprojectedColumnAfterAnEmptyGlobalAggregate) {
  // The one output row has no retained input row to read `value` from.
  for (const char* q : {
           "SELECT COUNT(*) AS n FROM tsdb WHERE value > 1000 ORDER BY value",
           "SELECT COUNT(*) AS n FROM tsdb ORDER BY value",
       }) {
    for (const std::string& got : Outcomes(catalog_, functions_, q)) {
      EXPECT_EQ(got, "OK 1 rows") << q;
    }
  }
}

TEST_F(ExecutorTest, DivisionByZeroYieldsNull) {
  Table t = MustQuery("SELECT 1 / 0 AS v");
  EXPECT_TRUE(t.At(0, 0).is_null());
}

TEST_F(ExecutorTest, TsdbScanProviderIntegration) {
  // End-to-end: a tsdb SeriesStore exposed as a lazily scanned table.
  auto store = std::make_shared<tsdb::SeriesStore>();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store
                    ->Write("disk", tsdb::TagSet{{"host", "dn-1"}}, i * 60,
                            static_cast<double>(i))
                    .ok());
  }
  catalog_.RegisterProvider("disk_scan",
                            [store]() -> Result<table::Table> {
                              tsdb::ScanRequest req;
                              req.metric_glob = "disk";
                              req.range = {0, 600};
                              return store->ScanToTable(req);
                            });
  Table t = MustQuery(
      "SELECT AVG(value) AS avg_v, tag['host'] AS host FROM disk_scan "
      "GROUP BY tag['host']");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, 0).AsDouble(), 2.0);
  EXPECT_EQ(t.At(0, 1).AsString(), "dn-1");
}

}  // namespace
}  // namespace explainit::sql
