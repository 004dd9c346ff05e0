// First-class EXPLAIN statements: planning and execution of the
// declarative RCA statement
//
//   EXPLAIN <select> [GIVEN <select> | GIVEN PSEUDOCAUSE] USING <select>
//   [SCORE BY '<scorer>'] [TOP k] [BETWEEN t0 AND t1]
//
// on top of the SQL operator pipeline. Each sub-select compiles through
// the regular planner (pushdown and pruning apply unchanged); their
// results are normalised to the Figure 4 Feature Family Table schema and
// fed into a Rank physical operator that fans hypothesis scoring out over
// the executor's worker pool (reusing core::RankFamilies) and emits the
// Score Table as an ordinary table::Table — so EXPLAIN results compose:
// they can be inspected, joined, or re-queried like any other relation.
//
// This lives in core (not sql) because ranking, family building and
// pseudocauses are core concepts; the operator plugs into the sql
// pipeline through the sql::Operator interface.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/result.h"
#include "core/engine.h"
#include "core/ranking.h"
#include "sql/ast.h"
#include "sql/executor.h"
#include "sql/operators/operator.h"

namespace explainit::core {

/// The Rank physical operator: the root of every planned EXPLAIN
/// statement. Children are the planned target, (optional) GIVEN and USING
/// sub-select trees; Open() drains them, builds feature families, ranks,
/// and Next() streams the Score Table:
///   (rank, family, score, num_features, best_lambda, score_seconds, viz).
class RankOperator : public sql::Operator {
 public:
  struct Params {
    std::string scorer_name = "L2-P50";
    /// Score Table cutoff (TOP k); the paper's default is 20.
    size_t top_k = 20;
    /// BETWEEN t0 AND t1, converted to a half-open range (Figure 2's
    /// range-to-explain).
    std::optional<TimeRange> explain_range;
    /// GIVEN PSEUDOCAUSE: condition on the target's systematic component.
    bool given_pseudocause = false;
  };

  /// `given` may be null. `ctx` is the executor's execution context; the
  /// ranking fan-out rides its pool when parallelism > 1 and runs inline
  /// when the pipeline is serial.
  RankOperator(Engine* engine, const sql::ExecContext* ctx,
               std::unique_ptr<sql::Operator> target,
               std::unique_ptr<sql::Operator> given,
               std::unique_ptr<sql::Operator> search_space, Params params);

  const table::Schema& output_schema() const override {
    return result_.schema();
  }
  std::string name() const override { return "Rank"; }

  /// The typed Score Table behind the relational output (valid after
  /// Open): sparklines, RankOf() and the rank-stage wall time.
  const ScoreTable& score_table() const { return score_table_; }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  /// Drains child `i` into a materialised table.
  Result<table::Table> DrainChild(size_t i);

  Engine* engine_;
  const sql::ExecContext* ctx_;
  Params params_;
  bool has_given_ = false;
  ScoreTable score_table_;
  table::Table result_;
  size_t pos_ = 0;
};

/// Compiles an EXPLAIN statement into a Rank-rooted physical tree using
/// `executor`'s planner/context (scorer name and window validated up
/// front). The statement must outlive the returned tree; execute it with
/// Executor::ExecuteTree.
Result<std::unique_ptr<RankOperator>> PlanExplain(
    const sql::ExplainStatement& stmt, Engine* engine,
    sql::Executor* executor);

}  // namespace explainit::core
