#include "core/explain.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "core/pseudocause.h"
#include "core/scorer.h"
#include "table/column_batch.h"

namespace explainit::core {

RankOperator::RankOperator(Engine* engine, const sql::ExecContext* ctx,
                           std::unique_ptr<sql::Operator> target,
                           std::unique_ptr<sql::Operator> given,
                           std::unique_ptr<sql::Operator> search_space,
                           Params params)
    : engine_(engine), ctx_(ctx), params_(std::move(params)) {
  AddChild(std::move(target));
  if (given != nullptr) {
    has_given_ = true;
    AddChild(std::move(given));
  }
  AddChild(std::move(search_space));
}

Result<table::Table> RankOperator::DrainChild(size_t i) {
  table::Table out(child(i)->output_schema());
  EXPLAINIT_RETURN_IF_ERROR(Drain(child(i), &out));
  return out;
}

Status RankOperator::OpenImpl() {
  for (size_t i = 0; i < num_children(); ++i) {
    EXPLAINIT_RETURN_IF_ERROR(child(i)->Open());
  }

  // Each side builds through FamiliesFromTable/FamilyFromRows, exactly as
  // Session's *ByQuery setters do, so both paths rank identical families.
  // Target (Y).
  RankRequest req;
  EXPLAINIT_ASSIGN_OR_RETURN(table::Table target_rows, DrainChild(0));
  EXPLAINIT_ASSIGN_OR_RETURN(
      req.target, FamilyFromRows(std::move(target_rows), "target", "target"));

  // Conditioning set (Z): GIVEN <select> or GIVEN PSEUDOCAUSE (§3.4).
  if (has_given_) {
    EXPLAINIT_ASSIGN_OR_RETURN(table::Table given_rows, DrainChild(1));
    EXPLAINIT_ASSIGN_OR_RETURN(
        req.condition,
        FamilyFromRows(std::move(given_rows), "condition", "Z:query"));
  } else if (params_.given_pseudocause) {
    EXPLAINIT_ASSIGN_OR_RETURN(Pseudocause pc,
                               BuildPseudocause(req.target));
    req.condition = std::move(pc.systematic);
  }

  // Search space (X families).
  EXPLAINIT_ASSIGN_OR_RETURN(table::Table space_rows,
                             DrainChild(num_children() - 1));
  EXPLAINIT_ASSIGN_OR_RETURN(req.candidates, FamiliesFromTable(space_rows));
  space_rows = table::Table();  // free the rows before ranking

  req.scorer_name = params_.scorer_name;
  req.ranking.top_k = params_.top_k;
  req.ranking.render_viz = true;
  req.ranking.explain_range = params_.explain_range;
  // The hypothesis fan-out rides the executor's (shared) pool; a serial
  // pipeline scores inline, so `parallelism` governs the Rank stage too.
  // The query's cancellation token gates each hypothesis.
  if (ctx_ != nullptr && ctx_->parallel()) {
    req.ranking.pool = ctx_->pool;
    req.ranking.num_threads = ctx_->parallelism;
  } else {
    req.ranking.num_threads = 1;
  }
  if (ctx_ != nullptr) req.ranking.cancel = ctx_->cancel;
  const size_t num_candidates = req.candidates.size();
  EXPLAINIT_ASSIGN_OR_RETURN(score_table_,
                             AlignAndRank(engine_, std::move(req)));
  result_ = score_table_.ToTable();
  stats_.detail = StrFormat(
      "scorer=%s candidates=%zu threads=%zu", params_.scorer_name.c_str(),
      num_candidates,
      ctx_ != nullptr && ctx_->parallel() ? ctx_->parallelism : size_t{1});
  return Status::OK();
}

Result<table::ColumnBatch> RankOperator::NextImpl(bool* eof) {
  if (pos_ >= result_.num_rows()) {
    *eof = true;
    return table::ColumnBatch{};
  }
  const size_t n =
      std::min(table::kDefaultBatchRows, result_.num_rows() - pos_);
  table::ColumnBatch batch = table::ColumnBatch::View(result_, pos_, n);
  pos_ += n;
  return batch;
}

Result<std::unique_ptr<RankOperator>> PlanExplain(
    const sql::ExplainStatement& stmt, Engine* engine,
    sql::Executor* executor) {
  RankOperator::Params params;
  if (!stmt.scorer.empty()) params.scorer_name = stmt.scorer;
  {
    // Fail before any sub-select runs when the scorer name is unknown.
    EXPLAINIT_ASSIGN_OR_RETURN(auto probe, MakeScorer(params.scorer_name));
    (void)probe;
  }
  if (stmt.top_k.has_value()) {
    params.top_k = static_cast<size_t>(*stmt.top_k);
  }
  if (stmt.between_start.has_value() && stmt.between_end.has_value()) {
    // SQL BETWEEN is inclusive; TimeRange's end is exclusive (saturate
    // rather than overflow at the INT64_MAX edge).
    const int64_t end = *stmt.between_end < INT64_MAX
                            ? *stmt.between_end + 1
                            : INT64_MAX;
    params.explain_range = TimeRange{*stmt.between_start, end};
  }
  params.given_pseudocause = stmt.given_pseudocause;

  EXPLAINIT_ASSIGN_OR_RETURN(auto target_op,
                             executor->PlanSelect(*stmt.target));
  std::unique_ptr<sql::Operator> given_op;
  if (stmt.given != nullptr) {
    EXPLAINIT_ASSIGN_OR_RETURN(given_op, executor->PlanSelect(*stmt.given));
  }
  EXPLAINIT_ASSIGN_OR_RETURN(auto space_op,
                             executor->PlanSelect(*stmt.search_space));
  return std::make_unique<RankOperator>(
      engine, executor->exec_context(), std::move(target_op),
      std::move(given_op), std::move(space_op), std::move(params));
}

}  // namespace explainit::core
