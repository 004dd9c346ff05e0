#include "sql/operators/project.h"

#include <algorithm>
#include <cstdint>

namespace explainit::sql {

using table::ColumnBatch;
using table::DataType;
using table::Field;
using table::Value;

ProjectOperator::ProjectOperator(std::unique_ptr<Operator> input,
                                 const SelectStatement* stmt,
                                 const FunctionRegistry* functions,
                                 bool retain_input, const ExecContext* ctx)
    : stmt_(stmt),
      functions_(functions),
      retain_input_(retain_input),
      ctx_(ctx) {
  input_ = AddChild(std::move(input));
}

Status ProjectOperator::OpenImpl() {
  EXPLAINIT_RETURN_IF_ERROR(input_->Open());
  const table::Schema& in = input_->output_schema();
  bool has_lag = false;
  for (const SelectItem& item : stmt_->items) {
    if (item.is_star) {
      for (size_t c = 0; c < in.num_fields(); ++c) {
        schema_.AddField(in.field(c));
        columns_.push_back(OutputColumn{std::nullopt, c});
      }
      continue;
    }
    schema_.AddField(Field{ItemName(item), DataType::kNull});
    if (item.expr->kind == ExprKind::kColumnRef) {
      if (Result<size_t> idx = ResolveColumn(*item.expr, in); idx.ok()) {
        columns_.push_back(OutputColumn{std::nullopt, *idx});
        continue;
      }
    }
    columns_.push_back(
        OutputColumn{BoundExpr(*item.expr, in, functions_), 0});
    if (ContainsLag(*item.expr)) has_lag = true;
  }
  stream_state_ = MakeShardState();
  // A LAG item reads the neighbouring row of the whole input, which the
  // sharded path's shards span at any shard count.
  sharded_ = has_lag || (ctx_ != nullptr && ctx_->parallel());
  // The sharded path may also drain into retained_ (its fallback morsel
  // source when the child's storage is not borrowable).
  if (retain_input_ || sharded_) retained_ = table::Table(in);
  return Status::OK();
}

ProjectOperator::ShardState ProjectOperator::MakeShardState() const {
  ShardState state;
  state.memos.reserve(columns_.size());
  for (const OutputColumn& col : columns_) {
    state.memos.emplace_back(col.item.has_value() ? &*col.item : nullptr);
  }
  return state;
}

Result<ColumnBatch> ProjectOperator::ProjectRows(const ColumnBatch& in,
                                                 RowRange range,
                                                 ShardState* state) const {
  constexpr uint32_t kUnseen = UINT32_MAX;
  // The range's codes renumbered 0, 1, 2, ... in first-reference order,
  // once per distinct input code array: `firsts` lists the input codes.
  struct Recoded {
    const uint32_t* in_codes;
    std::vector<uint32_t> firsts;
    std::shared_ptr<const table::CodeArray> codes;
  };
  std::vector<Recoded> recoded;
  ColumnBatch out(&schema_, range.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const OutputColumn& col = columns_[c];
    if (!col.item.has_value()) {
      const table::ColumnView& src = in.column(col.pass_through);
      out.AddBorrowedColumn(
          table::ColumnView(src.column(), src.offset() + range.begin));
      continue;
    }
    SeriesMemo& memo = state->memos[c];
    if (memo.Prepare(in)) {
      // Series-level: evaluate each referenced code once (in row order,
      // so errors surface where the row path raises them), then emit a
      // dictionary of only the codes the range references, so a batch
      // costs O(rows) however many series the input dictionary holds.
      Status error;
      for (size_t r = range.begin; r < range.end; ++r) {
        if (memo.Ref(in, r, nullptr, &error) == nullptr) return error;
      }
      const uint32_t* in_codes = in.column(col.item->columns()[0]).codes();
      auto it = std::find_if(
          recoded.begin(), recoded.end(),
          [&](const Recoded& rc) { return rc.in_codes == in_codes; });
      if (it == recoded.end()) {
        Recoded& rc = recoded.emplace_back(Recoded{in_codes, {}, nullptr});
        std::vector<uint32_t>& remap = state->remap;
        if (remap.size() < memo.num_codes()) {
          remap.resize(memo.num_codes(), kUnseen);
        }
        auto codes = std::make_shared<table::CodeArray>();
        codes->reserve(range.size());
        for (size_t r = range.begin; r < range.end; ++r) {
          uint32_t& to = remap[in_codes[r]];
          if (to == kUnseen) {
            to = static_cast<uint32_t>(rc.firsts.size());
            rc.firsts.push_back(in_codes[r]);
          }
          codes->push_back(to);
        }
        for (const uint32_t k : rc.firsts) remap[k] = kUnseen;
        rc.codes = std::move(codes);
        it = recoded.end() - 1;
      }
      auto dict = std::make_shared<table::Dictionary>();
      dict->reserve(it->firsts.size());
      for (const uint32_t k : it->firsts) dict->push_back(*memo.entry(k));
      out.AddOwnedColumn(
          table::Column(std::move(dict), it->codes, 0, range.size()));
      continue;
    }
    std::vector<Value> values;
    values.reserve(range.size());
    for (size_t r = range.begin; r < range.end; ++r) {
      EXPLAINIT_ASSIGN_OR_RETURN(Value v, memo.Eval(in, r));
      values.push_back(std::move(v));
    }
    out.AddOwnedColumn(std::move(values));
  }
  return out;
}

Result<ColumnBatch> ProjectOperator::ShardedNext(bool* eof) {
  if (!done_) {
    done_ = true;
    // Morsel source: borrow the child's materialised table when its
    // schema object is the child's output schema, else drain once. The
    // source doubles as the retained pre-projection rows (1:1).
    const table::Table* source = input_->BorrowMaterializedTable();
    if (source == nullptr) {
      EXPLAINIT_RETURN_IF_ERROR(Drain(input_, &retained_));
      source = &retained_;
    }
    retained_ptr_ = source;
    const ColumnBatch whole = ColumnBatch::View(*source, 0, source->num_rows());
    const std::vector<RowRange> shards =
        ShardRows(source->num_rows(), EffectiveParallelism(ctx_));
    std::vector<ColumnBatch> outputs(shards.size());
    EXPLAINIT_RETURN_IF_ERROR(RunSharded(
        ctx_, shards.size(), [&](size_t s) -> Status {
          ShardState state = MakeShardState();
          EXPLAINIT_ASSIGN_OR_RETURN(outputs[s],
                                     ProjectRows(whole, shards[s], &state));
          return Status::OK();
        }));
    shard_output_ = std::move(outputs);
    stats_.detail = std::to_string(shards.size()) + " shards";
  }
  while (emit_pos_ < shard_output_.size()) {
    ColumnBatch batch = std::move(shard_output_[emit_pos_]);
    ++emit_pos_;
    if (batch.num_rows() == 0) continue;
    *eof = false;
    return batch;
  }
  *eof = true;
  return ColumnBatch{};
}

Result<ColumnBatch> ProjectOperator::NextImpl(bool* eof) {
  if (sharded_) return ShardedNext(eof);
  bool child_eof = false;
  EXPLAINIT_ASSIGN_OR_RETURN(ColumnBatch batch, input_->Next(&child_eof));
  if (child_eof) {
    *eof = true;
    return ColumnBatch{};
  }
  if (retain_input_) batch.AppendTo(&retained_);
  current_input_ = std::move(batch);
  *eof = false;
  return ProjectRows(current_input_, RowRange{0, current_input_.num_rows()},
                     &stream_state_);
}

}  // namespace explainit::sql
