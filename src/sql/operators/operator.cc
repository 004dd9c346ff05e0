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

const table::Table* Operator::BorrowMaterializedTable() {
  const table::Table* t = MaterializedTable();
  if (t == nullptr || &t->schema() != &output_schema()) return nullptr;
  if (t->num_rows() > 0) {
    stats_.rows_output += t->num_rows();
    ++stats_.batches_output;
  }
  return t;
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

Status Operator::Drain(Operator* op, table::Table* out) {
  bool eof = false;
  while (true) {
    EXPLAINIT_ASSIGN_OR_RETURN(table::ColumnBatch batch, op->Next(&eof));
    if (eof) return Status::OK();
    batch.AppendTo(out);
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
