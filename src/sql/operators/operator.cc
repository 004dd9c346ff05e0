#include "sql/operators/operator.h"

#include <algorithm>

namespace explainit::sql {

namespace {
int64_t NowNs() {
  return static_cast<int64_t>(MonotonicSeconds() * 1e9);
}
}  // namespace

Status Operator::Open() {
  stats_.name = name();
  const int64_t t0 = NowNs();
  Status s = OpenImpl();
  stats_.elapsed_ns += NowNs() - t0;
  return s;
}

void Operator::BindExecContext(const ExecContext* ctx) {
  bound_ctx_ = ctx;
  for (const auto& c : children_) c->BindExecContext(ctx);
}

Result<table::ColumnBatch> Operator::Next(bool* eof) {
  if (bound_ctx_ != nullptr) {
    EXPLAINIT_RETURN_IF_ERROR(bound_ctx_->CheckCancel());
  }
  const int64_t t0 = NowNs();
  auto r = NextImpl(eof);
  stats_.elapsed_ns += NowNs() - t0;
  if (r.ok() && !*eof) {
    stats_.rows_output += r->num_rows();
    ++stats_.batches_output;
  }
  return r;
}

void Operator::CollectStats(std::vector<OperatorStats>* out) const {
  stats_.name = name();
  out->push_back(stats_);
  for (const auto& c : children_) c->CollectStats(out);
}

void Operator::AccumulateExecStatsTree(ExecStats* stats) const {
  AccumulateExecStats(stats);
  for (const auto& c : children_) c->AccumulateExecStatsTree(stats);
}

Status Drain(Operator* op, table::Table* out) {
  bool eof = false;
  while (true) {
    EXPLAINIT_ASSIGN_OR_RETURN(table::ColumnBatch batch, op->Next(&eof));
    if (eof) return Status::OK();
    batch.AppendTo(out);
  }
}

MorselWindow::MorselWindow(Operator* child, const ExecContext* ctx,
                           bool whole_input, bool keep_rows)
    : child_(child),
      ctx_(ctx),
      width_(EffectiveParallelism(ctx)),
      whole_input_(whole_input),
      keep_rows_(keep_rows || whole_input),
      rows_(child->output_schema()) {}

Status MorselWindow::Pull() {
  morsels_.clear();
  // Earlier outputs slice or share what they read, so only a batch with
  // rows left for this window stays.
  if (batches_.empty() || next_row_ == batches_.back().num_rows()) {
    batches_.clear();
  } else if (batches_.size() > 1) {
    batches_.erase(batches_.begin(), batches_.end() - 1);
  }
  while (morsels_.size() < width_) {
    if (batches_.empty() || next_row_ == batches_.back().num_rows()) {
      if (child_done_) break;
      if (whole_input_) {
        child_done_ = true;
        EXPLAINIT_RETURN_IF_ERROR(Drain(child_, &rows_));
        batches_.push_back(
            table::ColumnBatch::View(rows_, 0, rows_.num_rows()));
      } else {
        EXPLAINIT_ASSIGN_OR_RETURN(table::ColumnBatch batch,
                                   child_->Next(&child_done_));
        if (child_done_) break;
        if (keep_rows_) batch.AppendTo(&rows_);
        batches_.push_back(std::move(batch));
      }
      next_row_ = 0;
      continue;
    }
    const size_t end =
        next_row_ + std::min(table::kDefaultBatchRows,
                             batches_.back().num_rows() - next_row_);
    morsels_.push_back(Morsel{batches_.size() - 1, RowRange{next_row_, end}});
    next_row_ = end;
  }
  return Status::OK();
}

Result<table::ColumnBatch> MorselWindow::Next(bool* eof, const EvalFn& eval) {
  while (true) {
    while (emit_ < outputs_.size()) {
      table::ColumnBatch out = std::move(outputs_[emit_++]);
      if (out.num_rows() > 0) {
        *eof = false;
        return out;
      }
    }
    EXPLAINIT_RETURN_IF_ERROR(Pull());
    if (morsels_.empty()) {
      *eof = true;
      return table::ColumnBatch{};
    }
    outputs_.clear();
    outputs_.resize(morsels_.size());
    emit_ = 0;
    EXPLAINIT_RETURN_IF_ERROR(
        RunSharded(ctx_, morsels_.size(), [&](size_t i) -> Status {
          const Morsel& m = morsels_[i];
          EXPLAINIT_ASSIGN_OR_RETURN(outputs_[i],
                                     eval(i, batches_[m.batch], m.range));
          return Status::OK();
        }));
  }
}

std::vector<RowRange> ShardRows(size_t num_rows, size_t parallelism,
                                size_t min_shard_rows) {
  // Below min_shard_rows rows per shard the fan-out overhead beats the
  // work.
  if (min_shard_rows == 0) min_shard_rows = 1;
  size_t shards = parallelism == 0 ? 1 : parallelism;
  if (num_rows / min_shard_rows < shards) {
    shards = std::max<size_t>(1, num_rows / min_shard_rows);
  }
  std::vector<RowRange> out;
  out.reserve(shards);
  const size_t base = num_rows / shards;
  const size_t extra = num_rows % shards;
  size_t begin = 0;
  for (size_t i = 0; i < shards; ++i) {
    const size_t len = base + (i < extra ? 1 : 0);
    out.push_back(RowRange{begin, begin + len});
    begin += len;
  }
  return out;
}

Status RunSharded(const ExecContext* ctx, size_t num_shards,
                  const std::function<Status(size_t)>& fn) {
  if (num_shards == 0) return Status::OK();
  if (num_shards == 1 || ctx == nullptr || !ctx->parallel()) {
    for (size_t i = 0; i < num_shards; ++i) {
      EXPLAINIT_RETURN_IF_ERROR(fn(i));
    }
    return Status::OK();
  }
  std::vector<Status> statuses(num_shards, Status::OK());
  exec::ParallelFor(*ctx->pool, num_shards,
                    [&](size_t i) { statuses[i] = fn(i); });
  for (Status& s : statuses) {
    EXPLAINIT_RETURN_IF_ERROR(std::move(s));
  }
  return Status::OK();
}

Result<bool> EncodeKey(std::vector<SeriesMemo>* memos,
                       const table::ColumnBatch& in, size_t row,
                       std::string* key) {
  key->clear();
  bool matchable = true;
  for (SeriesMemo& m : *memos) {
    EXPLAINIT_ASSIGN_OR_RETURN(const bool ok, m.AppendKey(in, row, key));
    matchable = ok && matchable;
  }
  return matchable;
}

size_t KeyIndex::FindOrInsert(std::string_view key, bool* inserted) {
  if (2 * (size() + 1) > slots_.size()) Grow();
  const size_t hash = std::hash<std::string_view>{}(key);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot == 0) {
      const size_t id = size();
      slots_[i] = static_cast<uint32_t>(id + 1);
      hashes_.push_back(hash);
      arena_.append(key);
      offsets_.push_back(arena_.size());
      *inserted = true;
      return id;
    }
    if (hashes_[slot - 1] == hash && this->key(slot - 1) == key) {
      *inserted = false;
      return slot - 1;
    }
  }
}

void KeyIndex::Grow() {
  std::vector<uint32_t> slots(std::max<size_t>(64, 2 * slots_.size()), 0);
  const size_t mask = slots.size() - 1;
  for (size_t id = 0; id < size(); ++id) {
    size_t i = hashes_[id] & mask;
    while (slots[i] != 0) i = (i + 1) & mask;
    slots[i] = static_cast<uint32_t>(id + 1);
  }
  slots_ = std::move(slots);
}

void PrepareMemos(std::vector<SeriesMemo>* memos,
                  const table::ColumnBatch& in) {
  for (SeriesMemo& m : *memos) m.Prepare(in);
}

void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    CollectConjuncts(e->left.get(), out);
    CollectConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

std::string ItemName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  return item.expr->ToString();
}

}  // namespace explainit::sql
