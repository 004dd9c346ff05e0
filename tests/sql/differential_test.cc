// Differential SQL harness: a golden corpus of queries executed through
// the preserved seed row-at-a-time interpreter (bench/seed_executor.h)
// AND the planner + vectorised operator pipeline at parallelism 1 and N,
// asserting sorted row-set equality with floating-point tolerance.
//
// This is the correctness lock on the morsel-parallel operators: the
// parallel partial-aggregation path may re-associate floating-point sums
// (hence the tolerance), but every row, group, join match and NULL must
// agree with the seed semantics at every parallelism level.
//
// Adding corpus queries: append to kCorpus below. Queries must be valid
// against the fixture (tsdb / hosts / nums / dims / keys tables, see
// SetUp); invalid queries belong in fuzz_roundtrip_test.cc's smoke loop
// instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench/seed_executor.h"
#include "sql/executor.h"
#include "tsdb/store.h"

namespace explainit::sql {
namespace {

using table::Table;
using table::Value;

constexpr size_t kParallelism = 4;
constexpr int64_t kPoints = 30;  // per series, one per minute
const TimeRange kRange{0, kPoints * 60};

const char* const kCorpus[] = {
    // --- plain scans and filters -----------------------------------------
    "SELECT * FROM tsdb",
    "SELECT timestamp, value FROM tsdb",
    "SELECT value FROM tsdb WHERE metric_name = 'cpu' "
    "AND timestamp BETWEEN 300 AND 900 AND tag['host'] = 'h1'",
    "SELECT timestamp, value FROM tsdb "
    "WHERE tag['host'] IN ('h0', 'h2') OR value > 25",
    "SELECT timestamp, CASE WHEN value > 10 THEN 'hi' ELSE 'lo' END AS b "
    "FROM tsdb WHERE metric_name = 'cpu'",
    "SELECT timestamp FROM tsdb "
    "WHERE metric_name LIKE 'c%' AND timestamp BETWEEN 120 AND 240",
    "SELECT value FROM tsdb LIMIT 10",
    "SELECT -value AS neg, NOT value > 20 AS small FROM tsdb "
    "WHERE metric_name = 'mem' AND tag['dc'] = 'd1'",
    // Comparison shapes: literal OP column, map-key OP literal, NOT
    // BETWEEN, and comparisons with a NULL literal (never true).
    "SELECT timestamp, value FROM tsdb "
    "WHERE 20 < value AND 'cpu' = metric_name",
    "SELECT value FROM tsdb WHERE tag['dc'] >= 'd1' AND tag['host'] != 'h3'",
    "SELECT timestamp, value FROM tsdb "
    "WHERE metric_name = 'mem' AND value NOT BETWEEN 5 AND 20",
    "SELECT value FROM tsdb WHERE metric_name = 'cpu' AND value > NULL",
    "SELECT value FROM tsdb WHERE value = NULL OR metric_name = 'sparse'",
    // Metric-name sets: IN lists, ORs of equalities and their
    // intersections push down as one set of exact names; NOT IN, NULL
    // and non-literal items push nothing. A disjoint intersection scans
    // nothing and must still answer.
    "SELECT timestamp, value FROM tsdb "
    "WHERE metric_name IN ('mem', 'sparse', 'nope') AND timestamp >= 60",
    "SELECT tag['host'] AS h, SUM(value) AS s FROM tsdb "
    "WHERE metric_name = 'sparse' OR metric_name = 'cpu' "
    "GROUP BY tag['host']",
    "SELECT value FROM tsdb WHERE metric_name IN ('cpu', 'mem') "
    "AND metric_name = 'mem' AND tag['host'] = 'h2'",
    "SELECT COUNT(*) AS n, SUM(value) AS s FROM tsdb "
    "WHERE metric_name IN ('cpu') AND metric_name = 'mem'",
    "SELECT value FROM tsdb WHERE metric_name = 'cpu' "
    "AND metric_name = 'mem'",
    "SELECT value FROM tsdb WHERE metric_name NOT IN ('cpu', 'mem')",
    "SELECT value FROM tsdb WHERE metric_name IN ('sparse', NULL)",
    "SELECT value FROM tsdb "
    "WHERE metric_name IN ('cpu', tag['host']) AND timestamp < 300",
    "SELECT value FROM tsdb WHERE metric_name = 'c*'",
    // A global aggregate over an empty input, ordered by a column it
    // does not project.
    "SELECT COUNT(*) AS n FROM tsdb WHERE value > 1e9 ORDER BY value",
    // --- aggregation ------------------------------------------------------
    // A single non-string key, a mixed multi-key, and aggregates over
    // map-key arguments (string values sum as 0, a missing key is NULL).
    "SELECT value AS v, COUNT(*) AS n FROM tsdb WHERE metric_name = 'mem' "
    "GROUP BY value",
    "SELECT tag['host'] AS h, timestamp AS ts, SUM(value) AS s FROM tsdb "
    "GROUP BY tag['host'], timestamp",
    "SELECT metric_name AS m, SUM(tag['host']) AS s, "
    "MAX(tag['nokey']) AS x, COUNT(tag['dc']) AS c FROM tsdb "
    "GROUP BY metric_name",
    "SELECT tag['host'] AS host, AVG(value) AS v FROM tsdb "
    "WHERE metric_name = 'cpu' GROUP BY tag['host']",
    "SELECT tag['dc'] AS dc, tag['host'] AS h, COUNT(*) AS n, "
    "SUM(value) AS s, MIN(value) AS mn, MAX(value) AS mx "
    "FROM tsdb GROUP BY tag['dc'], tag['host']",
    "SELECT COUNT(*) AS n, AVG(value) AS a FROM tsdb",
    "SELECT COUNT(*) AS n, AVG(value) AS a FROM tsdb WHERE value > 99999",
    "SELECT tag['host'] AS h, AVG(value) AS v FROM tsdb "
    "WHERE metric_name = 'cpu' GROUP BY tag['host'] HAVING AVG(value) > 10",
    "SELECT AVG(value) / MAX(value) AS r, COUNT(*) + 1 AS c FROM tsdb "
    "WHERE metric_name = 'mem'",
    "SELECT tag['host'] AS h, STDDEV(value) AS sd, "
    "PERCENTILE(value, 0.9) AS p FROM tsdb "
    "WHERE metric_name = 'cpu' GROUP BY tag['host']",
    "SELECT timestamp AS ts, AVG(value) AS v FROM tsdb "
    "WHERE metric_name = 'cpu' GROUP BY timestamp",
    "SELECT tag['host'] AS h FROM tsdb WHERE metric_name = 'cpu' "
    "GROUP BY tag['host'] HAVING MAX(value) > 20",
    "SELECT SUM(value * 2) AS s2, MIN(value + 1) AS m1 FROM tsdb "
    "WHERE metric_name = 'mem'",
    "SELECT timestamp % 120 AS bucket, AVG(value) AS v FROM tsdb "
    "WHERE metric_name = 'cpu' GROUP BY timestamp % 120",
    "SELECT CONCAT(tag['host'], '-x') AS k, AVG(value) AS v FROM tsdb "
    "GROUP BY CONCAT(tag['host'], '-x')",
    // NULL-skipping aggregates over the nums fixture (b's SUM is NULL).
    "SELECT h, COUNT(v) AS c, COUNT(*) AS cs, SUM(v) AS s "
    "FROM nums GROUP BY h",
    "SELECT h, v FROM nums WHERE v IS NULL",
    // Lossless keys over the keys fixture: timestamps 10 s apart, doubles
    // equal to six digits, NULL beside 'NULL', and 1 = 1.0.
    "SELECT ts, COUNT(*) AS n FROM keys GROUP BY ts",
    "SELECT d, COUNT(*) AS n FROM keys GROUP BY d",
    "SELECT s, COUNT(*) AS n FROM keys GROUP BY s",
    "SELECT ts, STDDEV(d) AS sd FROM keys GROUP BY ts",
    "SELECT a.ts AS x, b.ts AS y FROM keys a JOIN keys b ON a.ts = b.ts",
    "SELECT a.i AS x, b.i AS y FROM keys a JOIN keys b ON a.i = b.i",
    "SELECT a.s AS x, b.s AS y FROM keys a JOIN keys b ON a.s = b.s",
    // --- joins ------------------------------------------------------------
    "SELECT COUNT(*) AS n, AVG(l.v + r.v) AS s FROM "
    "(SELECT timestamp AS ts, AVG(value) AS v FROM tsdb "
    " WHERE metric_name = 'cpu' GROUP BY timestamp) l "
    "JOIN "
    "(SELECT timestamp AS ts, AVG(value) AS v FROM tsdb "
    " WHERE metric_name = 'mem' GROUP BY timestamp) r "
    "ON l.ts = r.ts",
    "SELECT t.timestamp, t.value, hosts.grp FROM tsdb t "
    "JOIN hosts ON t.tag['host'] = hosts.host "
    "WHERE t.metric_name = 'cpu' AND t.timestamp < 600",
    "SELECT hosts.host, n.v FROM hosts LEFT JOIN nums n ON hosts.host = n.h",
    "SELECT hosts.host, n.v FROM hosts FULL OUTER JOIN nums n "
    "ON hosts.host = n.h",
    // Outer joins at both build orientations: hosts (4 rows) < dims
    // (12 rows) makes the planner build on the *left* side, nums (4
    // rows) keeps build = right; pads must follow the actual build side.
    "SELECT hosts.host, dims.v FROM hosts LEFT JOIN dims "
    "ON hosts.host = dims.h",
    "SELECT hosts.host, dims.v FROM hosts FULL OUTER JOIN dims "
    "ON hosts.host = dims.h",
    "SELECT dims.h, dims.v, hosts.grp FROM dims LEFT JOIN hosts "
    "ON dims.h = hosts.host",
    "SELECT dims.h, hosts.host FROM dims FULL OUTER JOIN hosts "
    "ON dims.h = hosts.host ORDER BY dims.h, hosts.host",
    // ORDER BY + LIMIT over join outputs: the keys cover every selected
    // column, so tied rows are identical and the LIMIT cut is a
    // well-defined multiset on both engines.
    "SELECT hosts.host AS hh, n.v AS vv FROM hosts LEFT JOIN nums n "
    "ON hosts.host = n.h ORDER BY hh DESC, vv LIMIT 3",
    "SELECT hosts.host AS hh, n.v AS vv FROM hosts FULL OUTER JOIN nums n "
    "ON hosts.host = n.h ORDER BY hh, vv DESC LIMIT 5",
    "SELECT timestamp, value FROM tsdb WHERE metric_name = 'mem' "
    "ORDER BY value DESC, timestamp LIMIT 11",
    "SELECT t.timestamp AS ts, t.value AS v, hosts.grp AS g FROM tsdb t "
    "JOIN hosts ON t.tag['host'] = hosts.host WHERE t.metric_name = 'cpu' "
    "ORDER BY v DESC, ts, g LIMIT 9",
    "SELECT a.host, b.grp FROM hosts a CROSS JOIN hosts b",
    "SELECT a.host, b.host FROM hosts a JOIN hosts b ON a.host < b.host",
    // Zero-key joins (no equi conjunct): every build row is a candidate
    // and the whole condition is the residual. h3 has no greater host
    // (a probe pad), h0 no smaller one (a build pad under FULL OUTER);
    // hosts LEFT JOIN dims builds on the smaller left side.
    "SELECT a.host, b.host FROM hosts a LEFT JOIN hosts b ON a.host < b.host",
    "SELECT a.host, b.host FROM hosts a FULL OUTER JOIN hosts b "
    "ON a.host < b.host",
    "SELECT hosts.host, dims.h, dims.v FROM hosts LEFT JOIN dims "
    "ON hosts.host > dims.h",
    "SELECT a.host, d.h, d.v FROM hosts a CROSS JOIN dims d "
    "WHERE d.v > 5 AND a.grp = 'edge'",
    // One-key join with a selective residual.
    "SELECT t.timestamp, t.value, d.v FROM tsdb t JOIN dims d "
    "ON t.tag['host'] = d.h AND t.value > d.v + 30",
    // Join-aware pushdown: per-side conjuncts narrow both tsdb scans.
    "SELECT COUNT(*) AS n FROM tsdb l JOIN tsdb r "
    "ON l.timestamp = r.timestamp "
    "WHERE l.metric_name = 'cpu' AND l.tag['host'] = 'h0' "
    "AND r.metric_name = 'mem' AND r.tag['host'] = 'h1' "
    "AND l.timestamp BETWEEN 0 AND 600",
    // Pushdown into the nullable side of an outer join: the conjuncts
    // are NULL-rejecting, so narrowing the scan must not change results.
    "SELECT h.host, t.value FROM hosts h "
    "LEFT JOIN tsdb t ON h.host = t.tag['host'] "
    "WHERE t.metric_name = 'cpu' AND t.timestamp < 180",
    // Duplicated alias: "binds to this input" is ambiguous, so the
    // planner must not push q.* conjuncts into either scan (the seed
    // resolves q.metric_name against the left input only).
    "SELECT COUNT(*) AS n FROM tsdb q JOIN tsdb q "
    "ON q.timestamp = q.timestamp "
    "WHERE q.metric_name = 'cpu' AND q.timestamp < 180",
    // --- LAG: each stage's Evaluator spans the whole input ---------------
    "SELECT timestamp, value - LAG(value, 1) AS d FROM tsdb "
    "WHERE metric_name = 'cpu' AND tag['host'] = 'h0'",
    "SELECT timestamp FROM tsdb WHERE metric_name = 'cpu' "
    "AND tag['host'] = 'h0' AND LAG(value, 1) < value",
    // LAG under aggregation (index mode at every parallelism): inside an
    // aggregate argument, in HAVING, and beside a non-decomposable
    // aggregate.
    "SELECT tag['host'] AS h, SUM(value - LAG(value)) AS s FROM tsdb "
    "WHERE metric_name = 'cpu' GROUP BY tag['host']",
    "SELECT tag['host'] AS h, COUNT(*) AS n FROM tsdb "
    "WHERE metric_name = 'mem' GROUP BY tag['host'] "
    "HAVING MIN(value - LAG(value)) > 0",
    "SELECT tag['dc'] AS dc, STDDEV(value) AS sd, "
    "AVG(LAG(value, 2)) AS a FROM tsdb WHERE metric_name = 'cpu' "
    "GROUP BY tag['dc']",
    // --- UNION ALL / ORDER BY / LIMIT / subqueries ------------------------
    "SELECT 'cpu' AS m, AVG(value) AS v FROM tsdb WHERE metric_name = 'cpu' "
    "UNION ALL "
    "SELECT 'mem' AS m, AVG(value) AS v FROM tsdb WHERE metric_name = 'mem'",
    "SELECT timestamp, value FROM tsdb WHERE metric_name = 'cpu' "
    "ORDER BY value DESC LIMIT 7",
    "SELECT value FROM tsdb WHERE metric_name = 'cpu' "
    "AND tag['host'] = 'h0' ORDER BY timestamp DESC LIMIT 5",
    "SELECT tag['host'] AS h, AVG(value) AS v FROM tsdb "
    "WHERE metric_name = 'cpu' GROUP BY tag['host'] ORDER BY v DESC LIMIT 2",
    "SELECT s.v + 1 AS w FROM (SELECT AVG(value) AS v FROM tsdb "
    "GROUP BY tag['host']) s WHERE s.v > 5",
    // --- rollup-aware resolution hints ------------------------------------
    // The fixture store is tiered (sealed segments + dirty heads), so
    // these run partly from pre-aggregated rollup tiers in the pipeline
    // while the seed recombines raw rows — parity locks the equivalence.
    "SELECT DATE_TRUNC('minute', timestamp) AS m, SUM(value) AS s "
    "FROM tsdb WHERE metric_name = 'cpu' "
    "GROUP BY DATE_TRUNC('minute', timestamp)",
    "SELECT DATE_TRUNC('hour', timestamp) AS h, MAX(value) AS mx "
    "FROM tsdb GROUP BY DATE_TRUNC('hour', timestamp)",
    "SELECT tag['host'] AS h, DATE_TRUNC('hour', timestamp) AS hh, "
    "MIN(value) AS lo FROM tsdb WHERE metric_name = 'mem' "
    "GROUP BY tag['host'], DATE_TRUNC('hour', timestamp)",
    // The `ts - ts % k` grid form with tier-aligned WHERE bounds.
    "SELECT timestamp - timestamp % 60 AS b, SUM(value) AS s FROM tsdb "
    "WHERE metric_name = 'cpu' AND timestamp >= 60 AND timestamp < 1200 "
    "GROUP BY timestamp - timestamp % 60",
    // No hint derivable (AVG / unaligned bound) — still must agree.
    "SELECT DATE_TRUNC('minute', timestamp) AS m, AVG(value) AS a "
    "FROM tsdb WHERE metric_name = 'cpu' "
    "GROUP BY DATE_TRUNC('minute', timestamp)",
    "SELECT DATE_TRUNC('minute', timestamp) AS m, SUM(value) AS s "
    "FROM tsdb WHERE metric_name = 'cpu' AND timestamp > 90 "
    "GROUP BY DATE_TRUNC('minute', timestamp)",
    // DATE_TRUNC as a plain scalar (no aggregation shape at all).
    "SELECT DATE_TRUNC('hour', timestamp) AS h, value FROM tsdb "
    "WHERE metric_name = 'sparse'",
    // --- cost-based planner: join reordering ------------------------------
    // Star joins in worst-case statement order (dimensions cross-joined
    // first, the big tsdb relation last): the planner reorders, the seed
    // runs statement order — parity proves order independence.
    "SELECT hosts.grp AS g, SUM(t.value) AS s "
    "FROM hosts CROSS JOIN nums n JOIN tsdb t ON t.tag['host'] = hosts.host "
    "GROUP BY hosts.grp ORDER BY g",
    "SELECT d.v AS dv, hosts.grp AS g, COUNT(*) AS n "
    "FROM dims d CROSS JOIN hosts JOIN nums m ON m.h = d.h "
    "GROUP BY d.v, hosts.grp ORDER BY dv, g",
    // --- cost-based planner: aggregate pushdown below joins ---------------
    "SELECT hosts.grp AS g, COUNT(*) AS n FROM tsdb t "
    "JOIN hosts ON t.tag['host'] = hosts.host GROUP BY hosts.grp",
    "SELECT hosts.host AS h, AVG(t.value) AS a, MIN(t.value) AS lo "
    "FROM tsdb t JOIN hosts ON t.tag['host'] = hosts.host "
    "WHERE t.metric_name = 'cpu' GROUP BY hosts.host ORDER BY h",
    // HAVING above the pushed partial aggregate.
    "SELECT hosts.host AS h, SUM(t.value) AS s FROM tsdb t "
    "JOIN hosts ON t.tag['host'] = hosts.host GROUP BY hosts.host "
    "HAVING SUM(t.value) > 100 ORDER BY h",
    // Global aggregate over a join (partial keys come from the join
    // condition alone).
    "SELECT COUNT(*) AS n, MAX(t.value) AS mx FROM tsdb t "
    "JOIN hosts ON t.tag['host'] = hosts.host WHERE t.metric_name = 'mem'",
    // R-only WHERE conjuncts move below the partial aggregate; the
    // hosts-side conjunct stays above it.
    "SELECT hosts.grp AS g, MAX(t.value) AS mx, MIN(t.value) AS mn "
    "FROM tsdb t JOIN hosts ON t.tag['host'] = hosts.host "
    "WHERE t.metric_name = 'cpu' AND t.timestamp < 900 GROUP BY hosts.grp",
    "SELECT hosts.host AS h, SUM(t.value) AS s FROM tsdb t "
    "JOIN hosts ON t.tag['host'] = hosts.host "
    "WHERE t.metric_name = 'cpu' AND hosts.grp = 'edge' "
    "GROUP BY hosts.host ORDER BY h",
    // Duplicate keys in R (dims has h0/h5 twice): join multiplicity
    // depends only on the partial group key, the invariant pushdown
    // relies on.
    "SELECT hosts.grp AS g, SUM(d.v) AS s FROM dims d "
    "JOIN hosts ON d.h = hosts.host JOIN nums m ON m.h = d.h "
    "GROUP BY hosts.grp ORDER BY g",
    // Per-branch optimisation under UNION ALL.
    "SELECT hosts.grp AS g, SUM(t.value) AS s FROM tsdb t "
    "JOIN hosts ON t.tag['host'] = hosts.host WHERE t.metric_name = 'cpu' "
    "GROUP BY hosts.grp "
    "UNION ALL "
    "SELECT hosts.grp AS g, SUM(t.value) AS s FROM tsdb t "
    "JOIN hosts ON t.tag['host'] = hosts.host WHERE t.metric_name = 'mem' "
    "GROUP BY hosts.grp",
    // Outer joins must keep statement order (and COUNT over the padded
    // side counts NULLs vs rows differently — both engines must agree).
    "SELECT hosts.host AS h, COUNT(n.v) AS c FROM hosts "
    "LEFT JOIN nums n ON hosts.host = n.h GROUP BY hosts.host ORDER BY h",
    "SELECT COUNT(*) AS n FROM hosts FULL OUTER JOIN dims "
    "ON hosts.host = dims.h",
    // --- cost-based planner: COUNT rollup routing --------------------------
    // The tiered fixture serves sealed segments from count tiers and the
    // dirty heads from raw decodes with value = 1.0 substituted.
    "SELECT DATE_TRUNC('minute', timestamp) AS m, COUNT(*) AS n FROM tsdb "
    "WHERE metric_name = 'cpu' GROUP BY DATE_TRUNC('minute', timestamp)",
    "SELECT DATE_TRUNC('hour', timestamp) AS h, COUNT(value) AS c "
    "FROM tsdb GROUP BY DATE_TRUNC('hour', timestamp)",
    // --- series-coded columns ---------------------------------------------
    // metric_name and tag are dictionary columns over the series index;
    // series-level programs run once per series. The two twin series
    // share CONCAT(metric_name, '@', tag['host']) but differ in other
    // tags, so they must form one group.
    "SELECT CONCAT(metric_name, '@', tag['host']) AS f, COUNT(*) AS n, "
    "SUM(value) AS s FROM tsdb GROUP BY CONCAT(metric_name, '@', tag['host'])",
    "SELECT timestamp AS ts, CONCAT(metric_name, '@', tag['host']) AS f, "
    "AVG(value) AS v FROM tsdb WHERE metric_name IN ('twin', 'cpu') "
    "GROUP BY timestamp, CONCAT(metric_name, '@', tag['host'])",
    "SELECT CONCAT(metric_name, '@', tag['host']) AS f, "
    "STDDEV(value) AS sd FROM tsdb WHERE metric_name = 'twin' "
    "GROUP BY CONCAT(metric_name, '@', tag['host'])",
    // A missing tag key: a NULL group key, and a join key that never
    // matches.
    "SELECT tag['missing'] AS m, COUNT(*) AS n FROM tsdb "
    "GROUP BY tag['missing']",
    "SELECT tag['rack'] AS r, metric_name AS m, COUNT(*) AS n FROM tsdb "
    "GROUP BY tag['rack'], metric_name",
    "SELECT t.value, hosts.grp FROM tsdb t "
    "LEFT JOIN hosts ON t.tag['missing'] = hosts.host "
    "WHERE t.metric_name = 'twin'",
    "SELECT COUNT(*) AS n FROM tsdb t "
    "JOIN hosts ON t.tag['missing'] = hosts.host",
    // Series-level predicates and items beside row-level ones.
    "SELECT timestamp, value FROM tsdb "
    "WHERE tag['host'] LIKE 'h%1' OR tag['rack'] LIKE 'r_'",
    "SELECT CONCAT(metric_name, '/', tag['dc']) AS k, value FROM tsdb "
    "WHERE value > 20",
    "SELECT t.metric_name AS m, t.value AS v, hosts.grp AS g FROM tsdb t "
    "JOIN hosts ON t.tag['host'] = hosts.host "
    "WHERE t.tag['dc'] = 'd1' AND CONCAT(t.metric_name, hosts.grp) "
    "LIKE 'cpu%'",
    // A series-level expression that errors (a subscript of a string)
    // only on the series a row-level predicate filters out never runs.
    "SELECT CASE WHEN metric_name = 'sparse' THEN metric_name['x'] "
    "ELSE 'ok' END AS c, value FROM tsdb WHERE value != 1.5",
    "SELECT CASE WHEN metric_name = 'sparse' THEN metric_name['x'] "
    "ELSE metric_name END AS c, COUNT(*) AS n FROM tsdb "
    "WHERE value != 1.5 GROUP BY CASE WHEN metric_name = 'sparse' "
    "THEN metric_name['x'] ELSE metric_name END",
    // --- IN lists of literals, bound once as a key set --------------------
    // NULL items, 1 = 1.0, numerics against timestamps, and strings
    // answer exactly as the per-row scan of `=` did.
    "SELECT ts, i FROM keys WHERE i IN (1.0, NULL)",
    "SELECT ts, d FROM keys WHERE d IN (0, 0.1234562, 7)",
    "SELECT ts FROM keys WHERE ts IN (10, 50.0, NULL)",
    "SELECT ts, s FROM keys WHERE s IN ('NULL', 'x', NULL)",
    "SELECT ts FROM keys WHERE i NOT IN (2.5, 1)",
    "SELECT ts FROM keys WHERE s IN (NULL)",
    "SELECT ts FROM keys WHERE s NOT IN ('x', 'NULL')",
};

bool NumericType(const Value& v) {
  switch (v.type()) {
    case table::DataType::kDouble:
    case table::DataType::kInt64:
    case table::DataType::kTimestamp:
      return true;
    default:
      return false;
  }
}

/// Cell equality with relative tolerance on numerics (the parallel
/// partial-aggregation merge may re-associate floating-point sums).
bool CellsClose(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    return a.is_null() && b.is_null();
  }
  if (NumericType(a) && NumericType(b)) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) == std::isnan(y);
    return std::abs(x - y) <=
           1e-9 * std::max(1.0, std::max(std::abs(x), std::abs(y)));
  }
  return a.ToString() == b.ToString();
}

std::vector<std::vector<Value>> SortedRows(const Table& t) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) rows.push_back(t.Row(r));
  std::stable_sort(rows.begin(), rows.end(),
                   [](const std::vector<Value>& a,
                      const std::vector<Value>& b) {
                     for (size_t c = 0; c < a.size(); ++c) {
                       const int cmp = a[c].Compare(b[c]);
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
  return rows;
}

/// Exact cell identity (Value::Equals is SQL equality, where NULL is
/// never equal to anything — including NULL).
bool SameCell(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  return a.Equals(b);
}

/// Asserts sorted row-set equality between two results.
void ExpectSameRowSet(const Table& expected, const Table& actual,
                      const std::string& query, const std::string& label) {
  ASSERT_EQ(expected.num_columns(), actual.num_columns())
      << label << ": " << query;
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    EXPECT_EQ(expected.schema().field(c).name, actual.schema().field(c).name)
        << label << " column " << c << ": " << query;
  }
  ASSERT_EQ(expected.num_rows(), actual.num_rows()) << label << ": " << query;
  const auto exp = SortedRows(expected);
  const auto act = SortedRows(actual);
  for (size_t r = 0; r < exp.size(); ++r) {
    for (size_t c = 0; c < exp[r].size(); ++c) {
      EXPECT_TRUE(CellsClose(exp[r][c], act[r][c]))
          << label << " row " << r << " col " << c << ": "
          << exp[r][c].ToString() << " vs " << act[r][c].ToString()
          << "\n  query: " << query;
    }
  }
}

class DifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    functions_ = FunctionRegistry::Builtins();
    // A deliberately tiered store: sealing every 8 points leaves each
    // dense series with sealed segments (and their rollup tiers) plus a
    // dirty head, so rollup-hinted corpus queries exercise the
    // mixed-granularity recombination path against the seed's raw scan.
    tsdb::StoreOptions store_opts;
    store_opts.seal_max_points = 8;
    store_opts.background_seal = false;
    store_ = std::make_shared<tsdb::SeriesStore>(store_opts);
    // Two dense metrics over four hosts in two dcs (fractional values so
    // float summation order matters), plus a sparse one.
    for (int host = 0; host < 4; ++host) {
      const tsdb::TagSet tags{{"host", "h" + std::to_string(host)},
                              {"dc", host < 2 ? "d0" : "d1"}};
      for (int64_t i = 0; i < kPoints; ++i) {
        ASSERT_TRUE(store_
                        ->Write("cpu", tags, i * 60,
                                host * 7.5 + static_cast<double>(i) * 0.25)
                        .ok());
        ASSERT_TRUE(store_
                        ->Write("mem", tags, i * 60,
                                host * 3.0 + static_cast<double>(i))
                        .ok());
      }
    }
    ASSERT_TRUE(store_
                    ->Write("sparse", tsdb::TagSet{{"host", "h0"}}, 120, 1.5)
                    .ok());
    // Twin series: one metric and host, different other tags.
    for (int64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(store_
                      ->Write("twin", tsdb::TagSet{{"host", "h1"}, {"dc", "d0"}},
                              i * 60, 2.0 + static_cast<double>(i))
                      .ok());
      ASSERT_TRUE(store_
                      ->Write("twin",
                              tsdb::TagSet{{"host", "h1"}, {"rack", "r1"}},
                              i * 60, 0.5 * static_cast<double>(i))
                      .ok());
    }
    // Engine-style registration: live row estimate for the cost-based
    // planner and exact_rollups so grid COUNT queries route onto count
    // tiers (the seed recombines raw rows either way — parity locks the
    // rewrite).
    auto store = store_;
    HintedProviderOptions provider_options;
    provider_options.estimated_rows = [store] { return store->num_points(); };
    provider_options.exact_rollups = true;
    catalog_.RegisterHintedProvider(
        "tsdb",
        [store](const tsdb::ScanHints& hints) -> Result<table::Table> {
          tsdb::ScanRequest req;
          req.range = kRange;
          req.hints = hints;
          return store->ScanToTable(req);
        },
        provider_options);

    table::Table hosts(table::Schema{{{"host", table::DataType::kString},
                                      {"grp", table::DataType::kString}}});
    hosts.AppendRow({Value::String("h0"), Value::String("edge")});
    hosts.AppendRow({Value::String("h1"), Value::String("edge")});
    hosts.AppendRow({Value::String("h2"), Value::String("core")});
    hosts.AppendRow({Value::String("h3"), Value::String("core")});
    catalog_.RegisterTable("hosts", std::move(hosts));

    table::Table nums(table::Schema{{{"h", table::DataType::kString},
                                     {"v", table::DataType::kDouble}}});
    nums.AppendRow({Value::String("h0"), Value::Double(1.0)});
    nums.AppendRow({Value::String("h0"), Value::Null()});
    nums.AppendRow({Value::String("h1"), Value::Null()});
    nums.AppendRow({Value::String("h9"), Value::Double(3.0)});
    catalog_.RegisterTable("nums", std::move(nums));

    // Larger than hosts (so outer joins against hosts build left),
    // duplicate keys (multi-match enumeration order) and keys matching
    // nothing (pad rows on either side).
    table::Table dims(table::Schema{{{"h", table::DataType::kString},
                                     {"v", table::DataType::kDouble}}});
    const char* const keys[] = {"h0", "h0", "h1", "h3", "h4", "h5",
                                "h5", "h6", "h7", "h8", "h9", "hX"};
    for (size_t i = 0; i < 12; ++i) {
      dims.AppendRow({Value::String(keys[i]),
                      Value::Double(0.5 + static_cast<double>(i))});
    }
    catalog_.RegisterTable("dims", std::move(dims));

    // Keys that a lossy rendering would merge: timestamps within one
    // minute, doubles equal to six significant digits, NULL and 'NULL',
    // and an integer column holding 1 beside 1.0.
    table::Table lossy(table::Schema{{{"ts", table::DataType::kTimestamp},
                                      {"d", table::DataType::kDouble},
                                      {"s", table::DataType::kString},
                                      {"i", table::DataType::kInt64}}});
    lossy.AppendRow({Value::Timestamp(0), Value::Double(0.1234561),
                     Value::Null(), Value::Int(1)});
    lossy.AppendRow({Value::Timestamp(10), Value::Double(0.1234562),
                     Value::String("NULL"), Value::Double(1.0)});
    lossy.AppendRow({Value::Timestamp(20), Value::Double(0.1234563),
                     Value::Null(), Value::Int(2)});
    lossy.AppendRow({Value::Timestamp(50), Value::Double(0.0),
                     Value::String("x"), Value::Double(2.5)});
    catalog_.RegisterTable("keys", std::move(lossy));
  }

  FunctionRegistry functions_;
  std::shared_ptr<tsdb::SeriesStore> store_;
  Catalog catalog_;
};

TEST_F(DifferentialTest, CorpusMatchesSeedAtEveryParallelism) {
  bench::SeedExecutor seed(&catalog_, &functions_);
  Executor serial(&catalog_, &functions_, /*parallelism=*/1);
  Executor parallel(&catalog_, &functions_, kParallelism);
  ASSERT_EQ(parallel.parallelism(), kParallelism);

  size_t count = 0;
  for (const char* query : kCorpus) {
    SCOPED_TRACE(query);
    auto expected = seed.Query(query);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto got1 = serial.Query(query);
    ASSERT_TRUE(got1.ok()) << got1.status().ToString();
    auto gotN = parallel.Query(query);
    ASSERT_TRUE(gotN.ok()) << gotN.status().ToString();
    ExpectSameRowSet(*expected, *got1, query, "pipeline@1 vs seed");
    ExpectSameRowSet(*expected, *gotN, query, "pipeline@N vs seed");
    EXPECT_EQ(parallel.last_stats().parallelism, kParallelism);
    ++count;
  }
  // The harness promises a corpus of at least 25 queries.
  EXPECT_GE(count, 25u);
}

TEST_F(DifferentialTest, CorpusAgreesAcrossOptimizerModes) {
  // Every corpus query with the cost-based optimizer off must match the
  // optimized plan's rows at parallelism 1 and kParallelism: plan shape
  // (join order, partial aggregates, rollup routing) is never allowed to
  // change an answer.
  PlannerOptions off;
  off.enabled = false;
  Executor optimized(&catalog_, &functions_, /*parallelism=*/1);
  Executor off_serial(&catalog_, &functions_, /*parallelism=*/1);
  off_serial.set_optimizer(off);
  Executor off_parallel(&catalog_, &functions_, kParallelism);
  off_parallel.set_optimizer(off);

  size_t rewritten = 0;
  for (const char* query : kCorpus) {
    SCOPED_TRACE(query);
    auto expected = optimized.Query(query);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    const ExecStats& st = optimized.last_stats();
    rewritten += st.joins_reordered + st.agg_pushdowns +
                 st.count_rollup_rewrites;
    auto got1 = off_serial.Query(query);
    ASSERT_TRUE(got1.ok()) << got1.status().ToString();
    auto gotN = off_parallel.Query(query);
    ASSERT_TRUE(gotN.ok()) << gotN.status().ToString();
    EXPECT_EQ(off_serial.last_stats().joins_reordered, 0u);
    EXPECT_EQ(off_serial.last_stats().agg_pushdowns, 0u);
    EXPECT_EQ(off_serial.last_stats().count_rollup_rewrites, 0u);
    ExpectSameRowSet(*expected, *got1, query, "optimizer off@1 vs on");
    ExpectSameRowSet(*expected, *gotN, query, "optimizer off@N vs on");
  }
  // The corpus genuinely exercises the rewrites (several queries reorder
  // joins, push aggregates below joins, or route COUNT onto rollups).
  EXPECT_GE(rewritten, 10u);
}

TEST_F(DifferentialTest, JoinSortPathsByteIdenticalAcrossParallelism) {
  // The partitioned join, sharded sort and parallel materialisation
  // must be *byte-identical* across parallelism levels — same rows in
  // the same order — not just row-set equal. (Float re-association is
  // confined to the parallel partial-aggregation path, so the corpus
  // here uses only exact operations; COUNT is integral.)
  static const char* const kOrdered[] = {
      "SELECT hosts.host AS hh, dims.v AS vv FROM hosts LEFT JOIN dims "
      "ON hosts.host = dims.h ORDER BY hh, vv",
      "SELECT hosts.host AS hh, dims.v AS vv FROM hosts FULL OUTER JOIN "
      "dims ON hosts.host = dims.h ORDER BY vv DESC, hh LIMIT 7",
      "SELECT dims.h AS h, hosts.grp AS g FROM dims LEFT JOIN hosts "
      "ON dims.h = hosts.host ORDER BY h DESC, g LIMIT 6",
      "SELECT t.timestamp AS ts, t.value AS v FROM tsdb t "
      "JOIN hosts ON t.tag['host'] = hosts.host "
      "WHERE t.metric_name = 'cpu' ORDER BY v DESC, ts LIMIT 20",
      "SELECT h, COUNT(*) AS c FROM dims GROUP BY h ORDER BY c DESC, h",
      // No ORDER BY: the zero-key join's own output order (matches,
      // then each run's pads) must not depend on parallelism either.
      "SELECT a.host AS x, b.host AS y FROM hosts a LEFT JOIN hosts b "
      "ON a.host < b.host",
  };
  Executor serial(&catalog_, &functions_, 1);
  Executor parallel(&catalog_, &functions_, kParallelism);
  for (const char* query : kOrdered) {
    SCOPED_TRACE(query);
    auto r1 = serial.Query(query);
    auto rN = parallel.Query(query);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(rN.ok()) << rN.status().ToString();
    ASSERT_EQ(r1->num_rows(), rN->num_rows());
    ASSERT_EQ(r1->num_columns(), rN->num_columns());
    for (size_t r = 0; r < r1->num_rows(); ++r) {
      for (size_t c = 0; c < r1->num_columns(); ++c) {
        EXPECT_TRUE(SameCell(r1->At(r, c), rN->At(r, c)))
            << "row " << r << " col " << c << ": "
            << r1->At(r, c).ToString() << " vs " << rN->At(r, c).ToString();
      }
    }
  }
}

TEST_F(DifferentialTest, ParallelismIsDeterministic) {
  // Two runs at the same parallelism produce bit-identical results (the
  // shard layout depends only on the row count and the knob).
  Executor a(&catalog_, &functions_, kParallelism);
  Executor b(&catalog_, &functions_, kParallelism);
  const char* query =
      "SELECT tag['host'] AS h, SUM(value) AS s, AVG(value) AS a "
      "FROM tsdb GROUP BY tag['host']";
  auto ra = a.Query(query);
  auto rb = b.Query(query);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra->num_rows(), rb->num_rows());
  for (size_t r = 0; r < ra->num_rows(); ++r) {
    for (size_t c = 0; c < ra->num_columns(); ++c) {
      EXPECT_TRUE(ra->At(r, c).Equals(rb->At(r, c))) << r << "," << c;
    }
  }
}

TEST_F(DifferentialTest, ChangingParallelismMidStreamIsSafe) {
  Executor exec(&catalog_, &functions_, 1);
  const char* query = "SELECT COUNT(*) AS n FROM tsdb";
  auto r1 = exec.Query(query);
  ASSERT_TRUE(r1.ok());
  exec.set_parallelism(kParallelism);
  auto rN = exec.Query(query);
  ASSERT_TRUE(rN.ok());
  EXPECT_EQ(r1->At(0, 0).AsInt(), rN->At(0, 0).AsInt());
  exec.set_parallelism(0);  // hardware concurrency
  EXPECT_GE(exec.parallelism(), 1u);
}

}  // namespace
}  // namespace explainit::sql
