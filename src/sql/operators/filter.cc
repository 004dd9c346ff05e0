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
  // the sharded path's shards span at any shard count.
  sharded_ = (predicate_ != nullptr && ContainsLag(*predicate_)) ||
             (ctx_ != nullptr && ctx_->parallel());
}

Status FilterOperator::OpenImpl() {
  EXPLAINIT_RETURN_IF_ERROR(input_->Open());
  bound_ = BoundExpr(*predicate_, input_->output_schema(), functions_);
  stream_memo_ = SeriesMemo(&bound_);
  return Status::OK();
}

Status FilterOperator::Select(const ColumnBatch& in, RowRange range,
                              SeriesMemo* memo,
                              std::vector<uint32_t>* selected) {
  memo->Prepare(in);
  Status error;
  Value scratch;
  for (size_t r = range.begin; r < range.end; ++r) {
    const Value* v = memo->Ref(in, r, &scratch, &error);
    if (v == nullptr) return error;
    if (!v->is_null() && v->AsBool()) {
      selected->push_back(static_cast<uint32_t>(r));
    }
  }
  return Status::OK();
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
    const ColumnBatch view = ColumnBatch::View(*source, 0, source->num_rows());
    const std::vector<RowRange> shards =
        ShardRows(source->num_rows(), EffectiveParallelism(ctx_));
    std::vector<ColumnBatch> outputs(shards.size());
    EXPLAINIT_RETURN_IF_ERROR(RunSharded(
        ctx_, shards.size(), [&](size_t s) -> Status {
          const RowRange& range = shards[s];
          std::vector<uint32_t> selected;
          selected.reserve(range.size());
          SeriesMemo memo(&bound_);
          EXPLAINIT_RETURN_IF_ERROR(Select(view, range, &memo, &selected));
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
  // gather the surviving rows; fully filtered batches are skipped.
  while (true) {
    bool child_eof = false;
    EXPLAINIT_ASSIGN_OR_RETURN(ColumnBatch batch, input_->Next(&child_eof));
    if (child_eof) {
      *eof = true;
      return ColumnBatch{};
    }
    std::vector<uint32_t> selected;
    selected.reserve(batch.num_rows());
    EXPLAINIT_RETURN_IF_ERROR(
        Select(batch, RowRange{0, batch.num_rows()}, &stream_memo_,
               &selected));
    if (selected.empty()) continue;
    *eof = false;
    if (selected.size() == batch.num_rows()) return batch;  // all pass
    return batch.Gather(selected);
  }
}

}  // namespace explainit::sql
