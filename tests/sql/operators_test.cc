// Operator-level regression tests for the parallel join/sort paths and
// the correctness holes they sit on:
//
//   * FULL OUTER / LEFT pads follow the *actual* build side. The planner
//     only swaps the build side when estimates favour it, so both
//     orientations are constructed directly here (the pre-fix code
//     hard-coded build = right and padded the wrong side under
//     build_left).
//   * FinishBuildPads reports eof directly when every build row matched
//     (the pre-fix code emitted an empty non-eof batch first).
//   * ORDER BY items resolve their evaluation side once: an item whose
//     primary side errors on only some rows must not mix key values
//     from two schemas (alias shadowing a pre-projection column).
//   * The partitioned join, sharded sort and parallel materialisation
//     produce byte-identical output at parallelism 1 vs 4, and record
//     their fan-out in ExecStats.
//   * HashJoin's candidate runs: keyed, zero-key (CROSS, non-equi) and
//     padded joins emit batches no larger than kMaxRunCandidates, with
//     byte-identical output at parallelism 1 and 4.
//   * HashAggregate's mode follows the statement, not the parallelism:
//     decomposable aggregates run partial mode and STDDEV or LAG run
//     index mode at parallelism 1, with a null context and at 4 alike.
//   * Series-level programs (over dictionary columns sharing one code
//     array) run once per referenced code in Filter, Project and
//     HashAggregate, and series-level Project/HashAggregate items come
//     out as dictionary columns.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/worker_pool.h"
#include "sql/executor.h"
#include "sql/operators/hash_aggregate.h"
#include "sql/operators/hash_join.h"
#include "sql/operators/scan.h"
#include "sql/parser.h"

namespace explainit::sql {
namespace {

using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

class OperatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    functions_ = FunctionRegistry::Builtins();

    Table l(Schema{{{"k", DataType::kString}, {"a", DataType::kInt64}}});
    l.AppendRow({Value::String("one"), Value::Int(1)});
    l.AppendRow({Value::String("two"), Value::Int(2)});
    l.AppendRow({Value::String("three"), Value::Int(3)});
    catalog_.RegisterTable("l", std::move(l));

    Table r(Schema{{{"k", DataType::kString}, {"b", DataType::kInt64}}});
    r.AppendRow({Value::String("two"), Value::Int(20)});
    r.AppendRow({Value::String("four"), Value::Int(40)});
    catalog_.RegisterTable("r", std::move(r));
  }

  /// Builds `l <type> JOIN r ON <condition>` directly so both build
  /// orientations are reachable (the planner only swaps on estimates).
  /// A null condition is a CROSS JOIN's.
  std::unique_ptr<HashJoinOperator> MakeJoin(
      JoinType type, bool build_left, const char* condition = "l.k = r.k",
      const ExecContext* ctx = nullptr) {
    join_.type = type;
    join_.condition = nullptr;
    if (condition != nullptr) {
      auto cond = ParseExpression(condition);
      EXPECT_TRUE(cond.ok());
      join_.condition = std::move(cond).value();
    }
    auto left = std::make_unique<CatalogScanOperator>(
        &catalog_, "l", tsdb::ScanHints{}, "l", std::nullopt);
    auto right = std::make_unique<CatalogScanOperator>(
        &catalog_, "r", tsdb::ScanHints{}, "r", std::nullopt);
    return std::make_unique<HashJoinOperator>(
        std::move(left), std::move(right), &join_, &functions_, build_left,
        ctx);
  }

  /// Drains `op`, asserting every non-eof batch carries rows (the eof
  /// fast-path regression), and returns the materialised result.
  Table DrainAll(Operator* op) {
    EXPECT_TRUE(op->Open().ok());
    Table out(op->output_schema());
    bool eof = false;
    while (true) {
      auto batch = op->Next(&eof);
      EXPECT_TRUE(batch.ok()) << batch.status().ToString();
      if (!batch.ok() || eof) break;
      EXPECT_GT(batch->num_rows(), 0u)
          << "empty non-eof batch (wasted Next round-trip)";
      batch->AppendTo(&out);
    }
    return out;
  }

  /// Text rendering of one row for order-insensitive comparison.
  static std::vector<std::string> RowStrings(const Table& t) {
    std::vector<std::string> rows;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      std::string s;
      for (size_t c = 0; c < t.num_columns(); ++c) {
        s += t.At(r, c).is_null() ? "·" : t.At(r, c).ToString();
        s += "|";
      }
      rows.push_back(std::move(s));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  Catalog catalog_;
  FunctionRegistry functions_;
  JoinClause join_;
};

// The FULL OUTER row set is orientation-independent: matched (two),
// left-only (one, three) padded on the right columns, right-only (four)
// padded on the left columns.
const std::vector<std::string> kFullOuterRows = {
    "one|1|·|·|", "three|3|·|·|", "two|2|two|20|", "·|·|four|40|"};

TEST_F(OperatorsTest, FullOuterBuildRightPadsCorrectSides) {
  auto op = MakeJoin(JoinType::kFullOuter, /*build_left=*/false);
  Table out = DrainAll(op.get());
  EXPECT_EQ(RowStrings(out), kFullOuterRows);
}

TEST_F(OperatorsTest, FullOuterBuildLeftPadsCorrectSides) {
  // Pre-fix, FinishFullOuter hard-coded build = right: with build_left
  // the unmatched *left* build rows came out with their values on the
  // right columns and nulls on the left.
  auto op = MakeJoin(JoinType::kFullOuter, /*build_left=*/true);
  Table out = DrainAll(op.get());
  EXPECT_EQ(RowStrings(out), kFullOuterRows);
}

TEST_F(OperatorsTest, LeftJoinBuildLeftPadsUnmatchedLeftRows) {
  // LEFT JOIN built on the left side: unmatched build (= left) rows pad
  // after the probe; unmatched right rows are dropped.
  auto op = MakeJoin(JoinType::kLeft, /*build_left=*/true);
  Table out = DrainAll(op.get());
  const std::vector<std::string> want = {"one|1|·|·|", "three|3|·|·|",
                                         "two|2|two|20|"};
  EXPECT_EQ(RowStrings(out), want);
}

TEST_F(OperatorsTest, LeftJoinBuildRightMatchesSeedShape) {
  auto op = MakeJoin(JoinType::kLeft, /*build_left=*/false);
  Table out = DrainAll(op.get());
  const std::vector<std::string> want = {"one|1|·|·|", "three|3|·|·|",
                                         "two|2|two|20|"};
  EXPECT_EQ(RowStrings(out), want);
}

TEST_F(OperatorsTest, FullOuterAllBuildRowsMatchedReportsEofDirectly) {
  // A right table whose every row matches: zero build pads. DrainAll
  // asserts no empty non-eof batch is emitted on the way out (the
  // pre-fix code burned one Next round-trip on exactly that).
  Table r2(Schema{{{"k", DataType::kString}, {"b", DataType::kInt64}}});
  r2.AppendRow({Value::String("one"), Value::Int(10)});
  r2.AppendRow({Value::String("two"), Value::Int(20)});
  r2.AppendRow({Value::String("three"), Value::Int(30)});
  catalog_.RegisterTable("r", std::move(r2));
  for (const bool build_left : {false, true}) {
    auto op = MakeJoin(JoinType::kFullOuter, build_left);
    Table out = DrainAll(op.get());
    const std::vector<std::string> want = {
        "one|1|one|10|", "three|3|three|30|", "two|2|two|20|"};
    EXPECT_EQ(RowStrings(out), want) << "build_left=" << build_left;
  }
}

TEST_F(OperatorsTest, BuildPadsEmitInBatchSizedChunks) {
  // 3500 unmatched build rows must not materialise as one giant pad
  // batch: FinishBuildPads keeps a cursor and emits kDefaultBatchRows at
  // a time, like every other operator.
  constexpr size_t kBuildRows = 3500;
  Table l2(Schema{{{"k", DataType::kString}, {"a", DataType::kInt64}}});
  for (size_t i = 0; i < kBuildRows; ++i) {
    l2.AppendRow({Value::String("L" + std::to_string(i)),
                  Value::Int(static_cast<int64_t>(i))});
  }
  l2.AppendRow({Value::String("two"), Value::Int(-1)});  // the one match
  catalog_.RegisterTable("l", std::move(l2));

  auto op = MakeJoin(JoinType::kFullOuter, /*build_left=*/true);
  ASSERT_TRUE(op->Open().ok());
  size_t total = 0, pad_batches = 0, max_batch = 0;
  bool eof = false;
  while (true) {
    auto batch = op->Next(&eof);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (eof) break;
    ASSERT_GT(batch->num_rows(), 0u);
    max_batch = std::max(max_batch, batch->num_rows());
    // A pad batch carries nulls in the probe (right) columns.
    if (batch->At(0, 2).is_null()) {
      ++pad_batches;
    }
    total += batch->num_rows();
  }
  // matched (two) + kBuildRows unmatched build + unmatched probe (four).
  EXPECT_EQ(total, kBuildRows + 2);
  EXPECT_LE(max_batch, table::kDefaultBatchRows);
  // ceil(3500 / 1024) = 4 chunks of build pads.
  EXPECT_GE(pad_batches, 4u);
}

// ---------------------------------------------------------------------------
// Bounded candidate runs
// ---------------------------------------------------------------------------

TEST_F(OperatorsTest, JoinRunsStayUnderTheCandidateCap) {
  // 400 x 400 rows under one key value: every probe row has 400
  // candidates, so the 160,000-row result takes at least 8 runs'
  // worth of batches. The CROSS JOIN is the zero-key case of the same
  // pairing; the LEFT JOIN's residual keeps a few pairs and pads the
  // rest; the build side's match lists do not change run boundaries.
  constexpr int64_t kRows = 400;
  Table l(Schema{{{"k", DataType::kString}, {"a", DataType::kInt64}}});
  Table r(Schema{{{"k", DataType::kString}, {"b", DataType::kInt64}}});
  for (int64_t i = 0; i < kRows; ++i) {
    l.AppendRow({Value::String("same"), Value::Int(i)});
    r.AppendRow({Value::String("same"), Value::Int(i)});
  }
  catalog_.RegisterTable("l", std::move(l));
  catalog_.RegisterTable("r", std::move(r));
  ASSERT_GE(static_cast<size_t>(kRows * kRows), 8 * kMaxRunCandidates);

  exec::WorkerPool pool(4);
  ExecContext parallel;
  parallel.parallelism = 4;
  parallel.pool = &pool;
  struct Case {
    JoinType type;
    const char* condition;
    size_t rows;
    size_t keys;
  };
  const Case cases[] = {
      {JoinType::kCross, nullptr, kRows * kRows, 0},
      {JoinType::kInner, "l.k = r.k", kRows * kRows, 1},
      // a - b > 390 keeps 45 pairs from 9 left rows; 391 left rows pad.
      {JoinType::kLeft, "l.a - r.b > 390", 45 + 391, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.condition == nullptr ? "CROSS" : c.condition);
    std::vector<std::string> outputs;
    for (const ExecContext* ctx : {static_cast<const ExecContext*>(nullptr),
                                   static_cast<const ExecContext*>(
                                       &parallel)}) {
      auto op = MakeJoin(c.type, /*build_left=*/false, c.condition, ctx);
      ASSERT_TRUE(op->Open().ok());
      size_t total = 0, batches = 0;
      std::string text;
      bool eof = false;
      while (true) {
        auto batch = op->Next(&eof);
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        if (eof) break;
        EXPECT_LE(batch->num_rows(), kMaxRunCandidates);
        total += batch->num_rows();
        ++batches;
        for (size_t row = 0; row < batch->num_rows(); ++row) {
          for (size_t col = 0; col < batch->num_columns(); ++col) {
            text += batch->At(row, col).is_null()
                        ? "·"
                        : batch->At(row, col).ToString();
            text += '|';
          }
          text += '\n';
        }
      }
      EXPECT_EQ(total, c.rows);
      if (c.rows == kRows * kRows) {
        EXPECT_GE(batches, 8u);
      }
      EXPECT_NE(op->stats().detail.find("keys=" + std::to_string(c.keys)),
                std::string::npos)
          << op->stats().detail;
      outputs.push_back(std::move(text));
    }
    // Byte-identical at parallelism 1 and 4: same rows, same order.
    EXPECT_TRUE(outputs[0] == outputs[1]);
  }
}

// ---------------------------------------------------------------------------
// ORDER BY side resolution
// ---------------------------------------------------------------------------

TEST_F(OperatorsTest, OrderByResolvesEvaluationSideOncePerItem) {
  // The output alias m (a map column) shadows the pre-projection column
  // m, whose row 1 holds an int: `m['k']` evaluates fine against the
  // pre-projection rows 0 and 2 but errors on row 1. Pre-fix, the
  // per-row fallback mixed keys from both schemas (pre values 0 and 5
  // for rows 0/2, output value 1 for row 1 -> id order 10,20,30);
  // post-fix the whole item falls back to the output schema (keys
  // 9,1,9 -> id order 20,10,30).
  Table t(Schema{{{"m", DataType::kNull},
                  {"m2", DataType::kNull},
                  {"id", DataType::kInt64}}});
  table::ValueMap a0, a2, b0, b1, b2;
  a0["k"] = Value::Int(0);
  a2["k"] = Value::Int(5);
  b0["k"] = Value::Int(9);
  b1["k"] = Value::Int(1);
  b2["k"] = Value::Int(9);
  t.AppendRow({Value::Map(a0), Value::Map(b0), Value::Int(10)});
  t.AppendRow({Value::Int(7), Value::Map(b1), Value::Int(20)});
  t.AppendRow({Value::Map(a2), Value::Map(b2), Value::Int(30)});
  catalog_.RegisterTable("t", std::move(t));

  for (const size_t parallelism : {size_t{1}, size_t{4}}) {
    Executor exec(&catalog_, &functions_, parallelism);
    auto res = exec.Query("SELECT m2 AS m, id FROM t ORDER BY m['k']");
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_EQ(res->num_rows(), 3u);
    EXPECT_EQ(res->At(0, 1).AsInt(), 20) << "parallelism " << parallelism;
    EXPECT_EQ(res->At(1, 1).AsInt(), 10) << "parallelism " << parallelism;
    EXPECT_EQ(res->At(2, 1).AsInt(), 30) << "parallelism " << parallelism;
  }
}

TEST_F(OperatorsTest, OrderByAliasShadowingStillPrefersPreProjection) {
  // When the pre-projection side evaluates cleanly on *every* row the
  // fix changes nothing: `id * 1` is no output column reference, so it
  // keys off the retained pre-projection rows exactly as the seed
  // interpreter does — even though `a AS id` shadows the name.
  Table t(Schema{{{"id", DataType::kInt64}, {"a", DataType::kInt64}}});
  t.AppendRow({Value::Int(3), Value::Int(100)});
  t.AppendRow({Value::Int(1), Value::Int(200)});
  t.AppendRow({Value::Int(2), Value::Int(300)});
  catalog_.RegisterTable("t", std::move(t));
  Executor exec(&catalog_, &functions_, 1);
  auto res = exec.Query("SELECT a AS id FROM t ORDER BY id * 1");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->num_rows(), 3u);
  // Sorted by pre-projection id (3,1,2) -> a values 200,300,100.
  EXPECT_EQ(res->At(0, 0).AsInt(), 200);
  EXPECT_EQ(res->At(1, 0).AsInt(), 300);
  EXPECT_EQ(res->At(2, 0).AsInt(), 100);
}

// ---------------------------------------------------------------------------
// Parallel join/sort/materialisation: byte-identical output + ExecStats
// ---------------------------------------------------------------------------

TEST_F(OperatorsTest, ParallelJoinSortMaterialiseByteIdentical) {
  // Big enough that the build partitions, the probe shards, the sort
  // shards and the chunked materialisation all actually engage
  // (ShardRows grain is 1024 rows).
  constexpr int kRows = 6000;
  Table big(Schema{{{"k", DataType::kInt64},
                    {"v", DataType::kDouble},
                    {"id", DataType::kInt64}}});
  Table dim(Schema{{{"k", DataType::kInt64}, {"w", DataType::kDouble}}});
  for (int i = 0; i < kRows; ++i) {
    big.AppendRow({Value::Int(i % 2048), Value::Double((i * 37) % 211),
                   Value::Int(i)});
  }
  for (int i = 0; i < 4096; ++i) {
    dim.AppendRow({Value::Int(i), Value::Double(i * 0.5)});
  }
  catalog_.RegisterTable("big", std::move(big));
  catalog_.RegisterTable("dim", std::move(dim));

  const std::string query =
      "SELECT big.id AS id, big.v + dim.w AS s FROM big "
      "JOIN dim ON big.k = dim.k ORDER BY s DESC, id LIMIT 500";
  Executor serial(&catalog_, &functions_, 1);
  Executor parallel(&catalog_, &functions_, 4);
  auto r1 = serial.Query(query);
  auto r4 = parallel.Query(query);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r4.ok()) << r4.status().ToString();
  ASSERT_EQ(r1->num_rows(), 500u);
  ASSERT_EQ(r1->num_rows(), r4->num_rows());
  for (size_t r = 0; r < r1->num_rows(); ++r) {
    for (size_t c = 0; c < r1->num_columns(); ++c) {
      ASSERT_TRUE(r1->At(r, c).Equals(r4->At(r, c)))
          << "row " << r << " col " << c;
    }
  }
  // The parallel run actually took the parallel paths.
  const ExecStats& stats = parallel.last_stats();
  EXPECT_GE(stats.join_build_partitions, 2u);
  EXPECT_GE(stats.sort_shards, 2u);
  EXPECT_EQ(serial.last_stats().join_build_partitions, 1u);
  EXPECT_EQ(serial.last_stats().sort_shards, 1u);
}

TEST_F(OperatorsTest, ParallelMaterialisationAssemblesChunks) {
  constexpr int kRows = 5000;
  Table big(Schema{{{"id", DataType::kInt64}, {"v", DataType::kDouble}}});
  for (int i = 0; i < kRows; ++i) {
    big.AppendRow({Value::Int(i), Value::Double(i * 0.25)});
  }
  catalog_.RegisterTable("big", std::move(big));

  // The second query's Filter and Project read the aggregate's one
  // 5,000-row batch, which their morsel windows split into 1,024-row
  // ranges across windows.
  const std::pair<std::string, size_t> queries[] = {
      {"SELECT id, v * 2 AS w FROM big WHERE id >= 0", kRows},
      {"SELECT id, w * 2 AS z FROM (SELECT id, SUM(v) AS w FROM big "
       "GROUP BY id) q WHERE w >= 1",
       kRows - 4},
  };
  Executor serial(&catalog_, &functions_, 1);
  Executor parallel(&catalog_, &functions_, 4);
  for (const auto& [query, rows] : queries) {
    SCOPED_TRACE(query);
    auto r1 = serial.Query(query);
    auto r4 = parallel.Query(query);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r4.ok()) << r4.status().ToString();
    ASSERT_EQ(r1->num_rows(), rows);
    ASSERT_EQ(r4->num_rows(), rows);
    for (size_t r = 0; r < r1->num_rows(); ++r) {
      for (size_t c = 0; c < r1->num_columns(); ++c) {
        ASSERT_TRUE(r1->At(r, c).Equals(r4->At(r, c)))
            << "row " << r << " col " << c;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// HashAggregate: the statement picks the mode at every parallelism level
// ---------------------------------------------------------------------------

TEST_F(OperatorsTest, AggregateModeFollowsTheStatement) {
  // Several batches and several shards' worth of rows; multiples of 0.25
  // keep every SUM exact whatever the summation order.
  constexpr int kRows = 5000;
  Table agg(Schema{{{"k", DataType::kInt64}, {"v", DataType::kDouble}}});
  for (int i = 0; i < kRows; ++i) {
    agg.AppendRow({Value::Int(i % 37), Value::Double((i % 101) * 0.25)});
  }
  catalog_.RegisterTable("agg", std::move(agg));

  struct Case {
    const char* query;
    bool partial;
  };
  const Case cases[] = {
      {"SELECT k, SUM(v) AS s FROM agg GROUP BY k", true},
      {"SELECT k, STDDEV(v) AS s FROM agg GROUP BY k", false},
      {"SELECT LAG(k) AS p, COUNT(*) AS n FROM agg GROUP BY LAG(k)", false},
  };
  auto detail_of = [](const ExecStats& stats) {
    for (const OperatorStats& op : stats.operators) {
      if (op.name == "HashAggregate") return op.detail;
    }
    return std::string("<no HashAggregate>");
  };
  Executor serial(&catalog_, &functions_, 1);
  Executor parallel(&catalog_, &functions_, 4);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.query);
    auto r1 = serial.Query(c.query);
    auto r4 = parallel.Query(c.query);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r4.ok()) << r4.status().ToString();
    const std::string d1 = detail_of(serial.last_stats());
    const std::string d4 = detail_of(parallel.last_stats());
    EXPECT_EQ(d1.find("(partial") != std::string::npos, c.partial) << d1;
    EXPECT_EQ(d4.find("(partial") != std::string::npos, c.partial) << d4;

    // The operator alone, with no context at all.
    auto stmt = Parse(c.query);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    HashAggregateOperator op(
        std::make_unique<CatalogScanOperator>(
            &catalog_, "agg", tsdb::ScanHints{}, "", std::nullopt),
        stmt->get(), &functions_, /*ctx=*/nullptr);
    Table r0 = DrainAll(&op);
    EXPECT_EQ(op.stats().detail.find("(partial") != std::string::npos,
              c.partial)
        << op.stats().detail;

    // Same groups in the same first-appearance order, same values.
    auto same = [](const Value& a, const Value& b) {
      return a.is_null() || b.is_null() ? a.is_null() && b.is_null()
                                        : a.Equals(b);
    };
    ASSERT_GT(r4->num_rows(), 1u);
    ASSERT_EQ(r1->num_rows(), r4->num_rows());
    ASSERT_EQ(r0.num_rows(), r4->num_rows());
    for (size_t r = 0; r < r4->num_rows(); ++r) {
      for (size_t col = 0; col < r4->num_columns(); ++col) {
        EXPECT_TRUE(same(r1->At(r, col), r4->At(r, col)))
            << "row " << r << " col " << col;
        EXPECT_TRUE(same(r0.At(r, col), r4->At(r, col)))
            << "row " << r << " col " << col;
      }
    }
  }
}

/// Registers `coded`: name and tag are dictionary columns sharing one
/// code array over 4 series (rows 0-1, 2-4, 5, 6-7), the dictionary
/// repeating "cpu"; v is boxed.
void RegisterCoded(Catalog* catalog) {
  auto names = std::make_shared<table::Dictionary>(table::Dictionary{
      Value::String("cpu"), Value::String("mem"), Value::String("cpu"),
      Value::String("disk")});
  auto tags = std::make_shared<table::Dictionary>(table::Dictionary{
      Value::Map({{"host", Value::String("h0")}}),
      Value::Map({{"host", Value::String("h1")}}),
      Value::Map({{"host", Value::String("h0")}, {"rack", Value::String("r")}}),
      Value::Map({{"host", Value::String("h2")}})});
  auto codes = std::make_shared<table::CodeArray>(
      table::CodeArray{0, 0, 1, 1, 1, 2, 3, 3});
  std::vector<table::Column> cols;
  cols.emplace_back(names, codes, 0, codes->size());
  cols.emplace_back(tags, codes, 0, codes->size());
  std::vector<Value> v;
  for (int i = 0; i < 8; ++i) v.push_back(Value::Double(i));
  cols.emplace_back(std::move(v));
  auto t = Table::FromColumns(Schema{{{"name", DataType::kString},
                                      {"tag", DataType::kMap},
                                      {"v", DataType::kDouble}}},
                              std::move(cols));
  ASSERT_TRUE(t.ok());
  catalog->RegisterTable("coded", std::move(t).value());
}

TEST_F(OperatorsTest, SeriesLevelProgramsRunOncePerReferencedCode) {
  RegisterCoded(&catalog_);
  // COUNTED(x) returns x and counts its calls.
  auto calls = std::make_shared<size_t>(0);
  functions_.Register("COUNTED", [calls](const std::vector<Value>& args)
                                     -> Result<Value> {
    ++*calls;
    return args.at(0);
  });
  struct Case {
    const char* query;
    size_t calls;  // one per code a surviving row references
    size_t rows;
  };
  const Case cases[] = {
      {"SELECT COUNTED(name) AS n, v FROM coded", 4, 8},
      {"SELECT v FROM coded WHERE COUNTED(tag['host']) = 'h0'", 4, 3},
      // Rows 3..7 reference codes 1, 2 and 3 only.
      {"SELECT COUNTED(name) AS n FROM coded WHERE v > 2.5", 3, 5},
      // The key once per code (4); the item once per group's
      // representative code (3: codes 0 and 2 form one group).
      {"SELECT COUNTED(CONCAT(name, '@', tag['host'])) AS f, SUM(v) AS s "
       "FROM coded GROUP BY COUNTED(CONCAT(name, '@', tag['host']))",
       7, 3},
  };
  for (const size_t p : {size_t{1}, size_t{4}}) {
    Executor exec(&catalog_, &functions_, p);
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.query) + " @" + std::to_string(p));
      *calls = 0;
      auto r = exec.Query(c.query);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->num_rows(), c.rows);
      EXPECT_EQ(*calls, c.calls);
    }
  }
}

TEST_F(OperatorsTest, SeriesLevelItemsComeOutAsDictionaryColumns) {
  RegisterCoded(&catalog_);
  for (const size_t p : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(p);
    Executor exec(&catalog_, &functions_, p);
    // Project: the series-level item is coded over the input's codes;
    // the row-level one stays boxed.
    auto proj = exec.Query(
        "SELECT CONCAT(name, '@', tag['host']) AS f, v * 2 AS w FROM coded");
    ASSERT_TRUE(proj.ok()) << proj.status().ToString();
    ASSERT_EQ(proj->num_rows(), 8u);
    EXPECT_TRUE(proj->column(0).is_dictionary());
    EXPECT_FALSE(proj->column(1).is_dictionary());
    EXPECT_EQ(proj->At(5, 0).AsString(), "cpu@h0");
    EXPECT_EQ(proj->At(7, 1).AsDouble(), 14.0);
    // A batch's dictionary holds only the codes its rows reference.
    auto disk = exec.Query(
        "SELECT CONCAT(name, '@', tag['host']) AS f FROM coded WHERE v >= 6");
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    ASSERT_EQ(disk->num_rows(), 2u);
    EXPECT_EQ(disk->At(1, 0).AsString(), "disk@h2");
    if (p == 1) {
      ASSERT_TRUE(disk->column(0).is_dictionary());
      EXPECT_EQ(disk->column(0).dictionary()->size(), 1u);
    }

    // HashAggregate, partial and index mode: equal CONCATs of different
    // series (codes 0 and 2) merge into one group in first-appearance
    // order, and the keys come out coded, sharing one code array.
    for (const char* agg : {"SUM(v)", "STDDEV(v)"}) {
      SCOPED_TRACE(agg);
      auto r = exec.Query(
          std::string("SELECT CONCAT(name, '@', tag['host']) AS f, "
                      "tag['host'] AS h, ") +
          agg + " AS s FROM coded GROUP BY CONCAT(name, '@', tag['host']), "
                "tag['host']");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->num_rows(), 3u);
      EXPECT_TRUE(r->column(0).is_dictionary());
      EXPECT_TRUE(r->column(1).is_dictionary());
      EXPECT_EQ(r->column(0).code_array(), r->column(1).code_array());
      EXPECT_FALSE(r->column(2).is_dictionary());
      EXPECT_EQ(r->At(0, 0).AsString(), "cpu@h0");
      EXPECT_EQ(r->At(1, 0).AsString(), "mem@h1");
      EXPECT_EQ(r->At(2, 0).AsString(), "disk@h2");
      EXPECT_EQ(r->At(2, 1).AsString(), "h2");
      if (std::string(agg) == "SUM(v)") {
        EXPECT_EQ(r->At(0, 2).AsDouble(), 0.0 + 1.0 + 5.0);
      }
    }
  }
}

TEST_F(OperatorsTest, SeriesLevelProjectSpansManyBatches) {
  // 3,000 rows cycling over a 500-entry dictionary: every streamed batch
  // renumbers the codes it references, and the values read as the
  // dictionary's.
  auto names = std::make_shared<table::Dictionary>();
  for (int i = 0; i < 500; ++i) {
    names->push_back(Value::String(std::string("s").append(std::to_string(i))));
  }
  auto codes = std::make_shared<table::CodeArray>();
  std::vector<Value> v;
  for (uint32_t r = 0; r < 3000; ++r) {
    codes->push_back((r * 7) % 500);
    v.push_back(Value::Double(r));
  }
  std::vector<table::Column> cols;
  cols.emplace_back(names, codes, 0, codes->size());
  cols.emplace_back(std::move(v));
  auto t = Table::FromColumns(
      Schema{{{"name", DataType::kString}, {"v", DataType::kDouble}}},
      std::move(cols));
  ASSERT_TRUE(t.ok());
  catalog_.RegisterTable("many", std::move(t).value());
  for (const size_t p : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(p);
    Executor exec(&catalog_, &functions_, p);
    auto r = exec.Query("SELECT CONCAT(name, '!') AS f, v FROM many");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->num_rows(), 3000u);
    for (size_t row = 0; row < 3000; ++row) {
      ASSERT_EQ(r->At(row, 0).AsString(),
                std::string("s").append(std::to_string((row * 7) % 500)) + "!")
          << row;
    }
  }
}

TEST_F(OperatorsTest, SeriesLevelErrorsSurfaceAtTheRowPathsRow) {
  RegisterCoded(&catalog_);
  // FAILS_ON_DISK errors for the disk series (rows 6-7) only.
  functions_.Register("FAILS_ON_DISK", [](const std::vector<Value>& args)
                                           -> Result<Value> {
    if (args.at(0).AsString() == "disk") {
      return Status::InvalidArgument("disk row");
    }
    return args.at(0);
  });
  for (const size_t p : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(p);
    Executor exec(&catalog_, &functions_, p);
    // A row-level predicate drops the failing series first: no error.
    auto ok = exec.Query(
        "SELECT FAILS_ON_DISK(name) AS n FROM coded WHERE v < 6");
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok->num_rows(), 6u);
    auto grouped = exec.Query(
        "SELECT FAILS_ON_DISK(name) AS n, COUNT(*) AS c FROM coded "
        "WHERE v < 6 GROUP BY FAILS_ON_DISK(name)");
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    EXPECT_EQ(grouped->num_rows(), 2u);
    // Otherwise the error surfaces, as row-by-row evaluation raises it.
    auto bad = exec.Query("SELECT FAILS_ON_DISK(name) AS n FROM coded");
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().ToString().find("disk row"), std::string::npos);
  }
}

TEST_F(OperatorsTest, InListOfLiteralsAnswersAsTheLinearScan) {
  // Subjects and items covering NULL, NaN, 1 vs 1.0, -0.0, timestamps and
  // strings; the bound key set must agree with Value::Equals item by item.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> values = {
      Value::Null(),         Value::Int(1),          Value::Double(1.0),
      Value::Double(nan),    Value::Double(-0.0),    Value::Int(0),
      Value::Timestamp(60),  Value::Double(60.0),    Value::String("1"),
      Value::String("NULL"), Value::String(""),      Value::Int(2),
      Value::Map({{"k", Value::Int(1)}})};
  Table t(Schema{{{"x", DataType::kNull}}});
  for (const Value& v : values) t.AppendRow({v});
  const table::ColumnBatch rows = table::ColumnBatch::View(t, 0, t.num_rows());
  // Item lists drawn from the same values (maps are not literals).
  const std::vector<std::vector<size_t>> lists = {
      {0}, {1}, {2, 0}, {3}, {4}, {5, 9}, {6}, {7, 8}, {10, 11, 3, 0},
      {1, 2, 4, 6, 8, 9, 10, 11}};
  for (const std::vector<size_t>& list : lists) {
    for (const bool negated : {false, true}) {
      Expr in;
      in.kind = ExprKind::kInList;
      in.negated = negated;
      in.left = std::make_unique<Expr>();
      in.left->kind = ExprKind::kColumnRef;
      in.left->column = "x";
      for (const size_t i : list) {
        auto item = std::make_unique<Expr>();
        item->literal = values[i];
        in.list.push_back(std::move(item));
      }
      const BoundExpr bound(in, t.schema(), &functions_);
      for (size_t r = 0; r < t.num_rows(); ++r) {
        auto got = bound.Eval(rows, r);
        ASSERT_TRUE(got.ok());
        const Value& x = values[r];
        if (x.is_null()) {
          EXPECT_TRUE(got->is_null()) << r;
          continue;
        }
        bool found = false;
        for (const size_t i : list) found = found || x.Equals(values[i]);
        EXPECT_EQ(got->AsBool(), negated ? !found : found)
            << x.ToString() << " list " << list.size() << " neg " << negated;
      }
    }
  }
}

}  // namespace
}  // namespace explainit::sql
