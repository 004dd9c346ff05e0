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
}

Status FilterOperator::OpenImpl() {
  EXPLAINIT_RETURN_IF_ERROR(input_->Open());
  bound_ = BoundExpr(*predicate_, input_->output_schema(), functions_);
  window_ = MorselWindow(input_, ctx_, ContainsLag(*predicate_),
                         /*keep_rows=*/false);
  memos_.assign(window_.width(), SeriesMemo(&bound_));
  return Status::OK();
}

Result<ColumnBatch> FilterOperator::NextImpl(bool* eof) {
  return window_.Next(eof, [this](size_t slot, const ColumnBatch& in,
                                  RowRange range) -> Result<ColumnBatch> {
    SeriesMemo& memo = memos_[slot];
    memo.Prepare(in);
    std::vector<uint32_t> selected;
    selected.reserve(range.size());
    Status error;
    Value scratch;
    for (size_t r = range.begin; r < range.end; ++r) {
      const Value* v = memo.Ref(in, r, &scratch, &error);
      if (v == nullptr) return error;
      if (!v->is_null() && v->AsBool()) {
        selected.push_back(static_cast<uint32_t>(r));
      }
    }
    if (selected.empty()) return ColumnBatch{};
    if (selected.size() == range.size()) {
      return in.Slice(range.begin, range.size());  // all pass: zero-copy
    }
    return in.Gather(selected);
  });
}

}  // namespace explainit::sql
