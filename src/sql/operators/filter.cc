#include "sql/operators/filter.h"

namespace explainit::sql {

using table::ColumnBatch;
using table::Value;

FilterOperator::FilterOperator(std::unique_ptr<Operator> input,
                               ExprPtr predicate,
                               const FunctionRegistry* functions,
                               const ExecContext* ctx)
    : predicate_(std::move(predicate)), functions_(functions), ctx_(ctx) {
  input_ = AddChild(std::move(input));
  // A LAG predicate reads the neighbouring row of the whole input, which
  // the sharded path's Evaluator spans at any shard count.
  sharded_ = (predicate_ != nullptr && ContainsLag(*predicate_)) ||
             (ctx_ != nullptr && ctx_->parallel());
}

Status FilterOperator::OpenImpl() {
  EXPLAINIT_RETURN_IF_ERROR(input_->Open());
  use_matchers_ = CompileMatchers();
  return Status::OK();
}

bool FilterOperator::CompileMatchers() {
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(predicate_.get(), &conjuncts);
  Evaluator schema_ev(&input_->output_schema(), functions_);
  std::vector<Matcher> matchers;
  matchers.reserve(conjuncts.size());
  for (const Expr* c : conjuncts) {
    Matcher m;
    if (c->kind == ExprKind::kBetween) {
      if (c->left == nullptr || c->between_lo == nullptr ||
          c->between_hi == nullptr ||
          c->between_lo->kind != ExprKind::kLiteral ||
          c->between_hi->kind != ExprKind::kLiteral) {
        return false;
      }
      auto simple = CompileSimpleExpr(*c->left);
      if (!simple.has_value()) return false;
      auto bound = BindSimpleExpr(*simple, schema_ev);
      if (!bound.ok()) return false;
      m.lhs = std::move(bound).value();
      m.op = Matcher::Op::kBetween;
      m.negated = c->negated;
      m.rhs = c->between_lo->literal;
      m.hi = c->between_hi->literal;
      matchers.push_back(std::move(m));
      continue;
    }
    if (c->kind != ExprKind::kBinary || c->left == nullptr ||
        c->right == nullptr) {
      return false;
    }
    BinaryOp op = c->binary_op;
    const Expr* simple_side = c->left.get();
    const Expr* literal_side = c->right.get();
    if (simple_side->kind == ExprKind::kLiteral) {
      // literal OP expr: flip the comparison.
      std::swap(simple_side, literal_side);
      op = op == BinaryOp::kLt   ? BinaryOp::kGt
           : op == BinaryOp::kLe ? BinaryOp::kGe
           : op == BinaryOp::kGt ? BinaryOp::kLt
           : op == BinaryOp::kGe ? BinaryOp::kLe
                                 : op;
    }
    if (literal_side->kind != ExprKind::kLiteral) return false;
    switch (op) {
      case BinaryOp::kEq: m.op = Matcher::Op::kEq; break;
      case BinaryOp::kNe: m.op = Matcher::Op::kNe; break;
      case BinaryOp::kLt: m.op = Matcher::Op::kLt; break;
      case BinaryOp::kLe: m.op = Matcher::Op::kLe; break;
      case BinaryOp::kGt: m.op = Matcher::Op::kGt; break;
      case BinaryOp::kGe: m.op = Matcher::Op::kGe; break;
      default: return false;
    }
    auto simple = CompileSimpleExpr(*simple_side);
    if (!simple.has_value()) return false;
    auto bound = BindSimpleExpr(*simple, schema_ev);
    if (!bound.ok()) return false;
    m.lhs = std::move(bound).value();
    m.rhs = literal_side->literal;
    matchers.push_back(std::move(m));
  }
  matchers_ = std::move(matchers);
  return true;
}

Result<bool> FilterOperator::MatchRow(const std::vector<Matcher>& matchers,
                                      const ColumnBatch& batch, size_t row) {
  // Mirrors the Evaluator's left-to-right AND: the first *false* conjunct
  // stops evaluation; a NULL conjunct drops the row but keeps evaluating
  // (so later errors still surface exactly as they would serially).
  bool null_seen = false;
  for (const Matcher& m : matchers) {
    const Value* cell = nullptr;
    EXPLAINIT_RETURN_IF_ERROR(m.lhs.Get(batch, row, &cell));
    if (cell->is_null() || m.rhs.is_null() ||
        (m.op == Matcher::Op::kBetween && m.hi.is_null())) {
      null_seen = true;
      continue;
    }
    bool pass = false;
    switch (m.op) {
      case Matcher::Op::kEq: pass = cell->Equals(m.rhs); break;
      case Matcher::Op::kNe: pass = !cell->Equals(m.rhs); break;
      case Matcher::Op::kLt: pass = cell->Compare(m.rhs) < 0; break;
      case Matcher::Op::kLe: pass = cell->Compare(m.rhs) <= 0; break;
      case Matcher::Op::kGt: pass = cell->Compare(m.rhs) > 0; break;
      case Matcher::Op::kGe: pass = cell->Compare(m.rhs) >= 0; break;
      case Matcher::Op::kBetween: {
        const bool in =
            cell->Compare(m.rhs) >= 0 && cell->Compare(m.hi) <= 0;
        pass = m.negated ? !in : in;
        break;
      }
    }
    if (!pass) return false;
  }
  return !null_seen;
}

Result<ColumnBatch> FilterOperator::ShardedNext(bool* eof) {
  if (!sharded_done_) {
    sharded_done_ = true;
    // Morsel source: the child's backing table when it is already
    // materialised with the same schema object (a catalog scan outside a
    // join), else a one-time drain.
    const table::Table* source = input_->BorrowMaterializedTable();
    if (source == nullptr) {
      drained_ = table::Table(input_->output_schema());
      EXPLAINIT_RETURN_IF_ERROR(Drain(input_, &drained_));
      source = &drained_;
    }
    const std::vector<RowRange> shards =
        ShardRows(source->num_rows(), EffectiveParallelism(ctx_));
    std::vector<ColumnBatch> outputs(shards.size());
    EXPLAINIT_RETURN_IF_ERROR(RunSharded(
        ctx_, shards.size(), [&](size_t s) -> Status {
          const RowRange& range = shards[s];
          ColumnBatch view =
              ColumnBatch::View(*source, 0, source->num_rows());
          std::vector<uint32_t> selected;
          selected.reserve(range.size());
          if (use_matchers_) {
            for (size_t r = range.begin; r < range.end; ++r) {
              EXPLAINIT_ASSIGN_OR_RETURN(bool keep,
                                         MatchRow(matchers_, view, r));
              if (keep) selected.push_back(static_cast<uint32_t>(r));
            }
          } else {
            Evaluator ev(source, functions_);
            for (size_t r = range.begin; r < range.end; ++r) {
              EXPLAINIT_ASSIGN_OR_RETURN(Value v, ev.Eval(*predicate_, r));
              if (!v.is_null() && v.AsBool()) {
                selected.push_back(static_cast<uint32_t>(r));
              }
            }
          }
          if (selected.empty()) return Status::OK();
          if (selected.size() == range.size()) {
            // All pass: a zero-copy view over the shard's rows.
            outputs[s] = ColumnBatch::View(*source, range.begin,
                                           range.size());
          } else {
            outputs[s] = view.Gather(selected);
          }
          return Status::OK();
        }));
    shard_output_ = std::move(outputs);
    stats_.detail = std::to_string(shards.size()) + " shards";
    if (use_matchers_) stats_.detail += " compiled";
  }
  while (emit_pos_ < shard_output_.size()) {
    ColumnBatch batch = std::move(shard_output_[emit_pos_]);
    ++emit_pos_;
    if (batch.num_rows() == 0) continue;  // empty or fully filtered shard
    *eof = false;
    return batch;
  }
  *eof = true;
  return ColumnBatch{};
}

Result<ColumnBatch> FilterOperator::NextImpl(bool* eof) {
  if (sharded_) return ShardedNext(eof);
  // Vectorised path: evaluate the predicate over each pulled batch and
  // gather the surviving rows; fully filtered batches are skipped. The
  // compiled-conjunct fast path skips the Evaluator entirely.
  while (true) {
    bool child_eof = false;
    EXPLAINIT_ASSIGN_OR_RETURN(ColumnBatch batch, input_->Next(&child_eof));
    if (child_eof) {
      *eof = true;
      return ColumnBatch{};
    }
    std::vector<uint32_t> selected;
    selected.reserve(batch.num_rows());
    if (use_matchers_) {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        EXPLAINIT_ASSIGN_OR_RETURN(bool keep,
                                   MatchRow(matchers_, batch, r));
        if (keep) selected.push_back(static_cast<uint32_t>(r));
      }
    } else {
      Evaluator ev(&batch, functions_);
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        EXPLAINIT_ASSIGN_OR_RETURN(Value v, ev.Eval(*predicate_, r));
        if (!v.is_null() && v.AsBool()) {
          selected.push_back(static_cast<uint32_t>(r));
        }
      }
    }
    if (selected.empty()) continue;
    *eof = false;
    if (selected.size() == batch.num_rows()) return batch;  // all pass
    return batch.Gather(selected);
  }
}

}  // namespace explainit::sql
