#include "sql/operators/hash_join.h"

#include <functional>

namespace explainit::sql {

using table::ColumnBatch;
using table::Field;
using table::Schema;
using table::Value;

namespace {

/// Grain of the per-batch shards (probe lookups and candidate pairs):
/// probe batches are at most table::kDefaultBatchRows rows, so the
/// morsel default grain (1024) would rarely split them.
constexpr size_t kProbeShardMinRows = 128;

/// Runs the tasks of table::ConcatBatches inline: a run's merge is
/// small next to the shards that produced it.
void Serially(size_t n, const std::function<void(size_t)>& fn) {
  for (size_t i = 0; i < n; ++i) fn(i);
}

/// An expression "belongs" to a side when every column it references
/// resolves there.
bool ResolvesAgainst(const Expr& e, const Schema& schema) {
  return !AnyNode(e, [&schema](const Expr& n) {
    return n.kind == ExprKind::kColumnRef && !ResolveColumn(n, schema).ok();
  });
}

/// Binds each expression against `schema`.
std::vector<BoundExpr> BindAll(const std::vector<const Expr*>& exprs,
                               const Schema& schema,
                               const FunctionRegistry* functions) {
  std::vector<BoundExpr> out;
  out.reserve(exprs.size());
  for (const Expr* e : exprs) out.emplace_back(*e, schema, functions);
  return out;
}

}  // namespace

EquiKeys SplitJoinCondition(const Expr* condition, const Schema& left,
                            const Schema& right) {
  EquiKeys keys;
  if (condition == nullptr) return keys;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(condition, &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq) {
      const Expr* l = c->left.get();
      const Expr* r = c->right.get();
      if (ResolvesAgainst(*l, left) && ResolvesAgainst(*r, right)) {
        keys.left_exprs.push_back(l);
        keys.right_exprs.push_back(r);
        continue;
      }
      if (ResolvesAgainst(*r, left) && ResolvesAgainst(*l, right)) {
        keys.left_exprs.push_back(r);
        keys.right_exprs.push_back(l);
        continue;
      }
    }
    keys.residual.push_back(c);
  }
  return keys;
}

HashJoinOperator::HashJoinOperator(std::unique_ptr<Operator> left,
                                   std::unique_ptr<Operator> right,
                                   const JoinClause* join,
                                   const FunctionRegistry* functions,
                                   bool build_left, const ExecContext* ctx)
    : join_(join), functions_(functions), build_left_(build_left),
      ctx_(ctx) {
  left_ = AddChild(std::move(left));
  right_ = AddChild(std::move(right));
}

bool HashJoinOperator::NeedsBuildPads() const {
  return join_->type == JoinType::kFullOuter ||
         (join_->type == JoinType::kLeft && build_left_);
}

bool HashJoinOperator::NeedsProbePads() const {
  return join_->type == JoinType::kFullOuter ||
         (join_->type == JoinType::kLeft && !build_left_);
}

Status HashJoinOperator::OpenImpl() {
  EXPLAINIT_RETURN_IF_ERROR(left_->Open());
  EXPLAINIT_RETURN_IF_ERROR(right_->Open());
  const Schema& ls = left_->output_schema();
  const Schema& rs = right_->output_schema();
  const size_t left_width = ls.num_fields();
  const size_t right_width = rs.num_fields();
  for (const Field& f : ls.fields()) schema_.AddField(f);
  for (const Field& f : rs.fields()) schema_.AddField(f);
  build_offset_ = build_left_ ? 0 : left_width;
  probe_offset_ = build_left_ ? left_width : 0;
  build_width_ = build_left_ ? left_width : right_width;
  probe_width_ = build_left_ ? right_width : left_width;

  keys_ = SplitJoinCondition(join_->condition.get(), ls, rs);

  // Materialise and index the build side. Empty key lists (zero-key
  // joins) hash every build row under one key: each probe row's
  // candidates are the whole build side.
  Operator* build = build_left_ ? left_ : right_;
  build_table_ = table::Table(build->output_schema());
  EXPLAINIT_RETURN_IF_ERROR(Drain(build, &build_table_));
  build_keys_ = BindAll(build_left_ ? keys_.left_exprs : keys_.right_exprs,
                        build->output_schema(), functions_);
  Operator* probe = build_left_ ? right_ : left_;
  probe_keys_ = BindAll(build_left_ ? keys_.right_exprs : keys_.left_exprs,
                        probe->output_schema(), functions_);
  residual_ = BindAll(keys_.residual, schema_, functions_);

  const size_t n = build_table_.num_rows();
  parallelism_ = EffectiveParallelism(ctx_);
  num_partitions_ = std::max<size_t>(
      1, std::min(parallelism_, std::max<size_t>(1, n / 1024)));

  // Phase 1: encode every build row's key (sharded; shards write
  // disjoint ranges) and bucket non-null rows by partition per shard.
  // The hash only routes rows to partitions, so it never affects
  // results.
  std::vector<std::string> keys(n);
  std::vector<char> null_key(n, 0);
  const std::vector<RowRange> shards = ShardRows(n, parallelism_);
  // buckets[s][p]: this shard's rows for partition p, ascending.
  std::vector<std::vector<std::vector<size_t>>> buckets(
      num_partitions_ > 1 ? shards.size() : 0);
  const ColumnBatch build_rows = ColumnBatch::View(build_table_, 0, n);
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, shards.size(), [&](size_t s) -> Status {
        if (num_partitions_ > 1) buckets[s].resize(num_partitions_);
        std::vector<SeriesMemo> memos = MakeMemos(build_keys_);
        PrepareMemos(&memos, build_rows);
        for (size_t j = shards[s].begin; j < shards[s].end; ++j) {
          EXPLAINIT_ASSIGN_OR_RETURN(
              const bool matchable,
              EncodeKey(&memos, build_rows, j, &keys[j]));
          null_key[j] = matchable ? 0 : 1;
          if (num_partitions_ > 1 && matchable) {
            buckets[s][std::hash<std::string>{}(keys[j]) % num_partitions_]
                .push_back(j);
          }
        }
        return Status::OK();
      }));

  // Phase 2: build per-partition indexes, one task per partition; each
  // task walks only its own buckets (O(n) total across partitions).
  // Shards are contiguous ascending ranges, so visiting them in order
  // keeps rows inserting ascending: equal-key matches enumerate in
  // build order at every parallelism level (the serial path is the
  // single partition, which scans rows directly).
  partitions_.assign(num_partitions_, BuildPartition{});
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, num_partitions_, [&](size_t p) -> Status {
        BuildPartition& partition = partitions_[p];
        partition.index.reserve(n / num_partitions_ + 1);
        if (num_partitions_ == 1) {
          for (size_t j = 0; j < n; ++j) {
            if (!null_key[j]) partition.index[keys[j]].push_back(j);
          }
          return Status::OK();
        }
        for (const auto& shard_buckets : buckets) {
          for (const size_t j : shard_buckets[p]) {
            partition.index[keys[j]].push_back(j);
          }
        }
        return Status::OK();
      }));

  build_matched_.assign(n, 0);
  probe_memos_.assign(parallelism_, MakeMemos(probe_keys_));
  residual_memos_.assign(parallelism_, MakeMemos(residual_));
  stats_.detail = std::string("build=") + (build_left_ ? "left" : "right") +
                  " rows=" + std::to_string(n) +
                  " parts=" + std::to_string(num_partitions_) +
                  " keys=" + std::to_string(keys_.left_exprs.size());
  return Status::OK();
}

Result<ColumnBatch> HashJoinOperator::FinishBuildPads(bool* eof) {
  // Build-side rows that never matched, padded with nulls on the probe
  // side's columns and emitted in batch-sized chunks — a large build side
  // with few matches would otherwise materialise one giant batch and
  // undo the pipeline's bounded-memory batching. Pads follow the actual
  // build orientation: the build side's values land on its own columns
  // whichever input it is. pad_pos_ persists the scan cursor between
  // calls; pads_emitted_ flips once the cursor exhausts the build table.
  const size_t total = build_table_.num_rows();
  std::vector<uint32_t> rows;
  while (pad_pos_ < total && rows.size() < table::kDefaultBatchRows) {
    const size_t j = pad_pos_++;
    if (!build_matched_[j]) rows.push_back(static_cast<uint32_t>(j));
  }
  if (pad_pos_ >= total) pads_emitted_ = true;
  if (rows.empty()) {
    // Every remaining build row matched: report end of stream directly
    // instead of burning a Next() round-trip on an empty non-eof batch.
    *eof = true;
    return ColumnBatch{};
  }
  const ColumnBatch build = ColumnBatch::View(build_table_, 0, total);
  std::vector<table::Column> build_cols =
      table::GatherColumns(build.columns(), rows.data(), rows.size());
  ColumnBatch out(&schema_, rows.size());
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    if (c >= build_offset_ && c < build_offset_ + build_width_) {
      out.AddOwnedColumn(std::move(build_cols[c - build_offset_]));
    } else {
      out.AddOwnedColumn(std::vector<Value>(rows.size()));
    }
  }
  *eof = false;
  return out;
}

Status HashJoinOperator::PullProbeBatch() {
  Operator* probe = build_left_ ? right_ : left_;
  EXPLAINIT_ASSIGN_OR_RETURN(probe_batch_, probe->Next(&probe_done_));
  probe_pos_ = 0;
  if (probe_done_) return Status::OK();
  // Look up every probe row's match list once, in contiguous row shards
  // (disjoint writes). A null key never matches.
  const size_t rows = probe_batch_.num_rows();
  probe_matches_.assign(rows, nullptr);
  const std::vector<RowRange> shards =
      ShardRows(rows, parallelism_, kProbeShardMinRows);
  return RunSharded(ctx_, shards.size(), [&](size_t s) -> Status {
    std::vector<SeriesMemo>& memos = probe_memos_[s];
    PrepareMemos(&memos, probe_batch_);
    std::string key;
    for (size_t i = shards[s].begin; i < shards[s].end; ++i) {
      EXPLAINIT_ASSIGN_OR_RETURN(
          const bool matchable,
          EncodeKey(&memos, probe_batch_, i, &key));
      if (!matchable) continue;
      const size_t p =
          num_partitions_ > 1
              ? std::hash<std::string>{}(key) % num_partitions_
              : 0;
      const auto it = partitions_[p].index.find(key);
      if (it != partitions_[p].index.end()) probe_matches_[i] = &it->second;
    }
    return Status::OK();
  });
}

Result<ColumnBatch> HashJoinOperator::JoinRun() {
  // Extend the run while its candidates stay within the cap. A probe row
  // without candidates weighs one (it may pad), so a run's output stays
  // within the cap too unless one probe row alone exceeds it.
  // offsets[r] is the first pair of the run's r-th row; offsets.back()
  // is the run's pair count.
  const size_t begin = probe_pos_;
  const size_t rows = probe_batch_.num_rows();
  std::vector<size_t> offsets{0};
  size_t end = begin;
  size_t weight = 0;
  while (end < rows) {
    const size_t n =
        probe_matches_[end] == nullptr ? 0 : probe_matches_[end]->size();
    const size_t w = std::max<size_t>(n, 1);
    if (end > begin && weight + w > kMaxRunCandidates) break;
    weight += w;
    offsets.push_back(offsets.back() + n);
    ++end;
  }
  probe_pos_ = end;
  const size_t run_rows = end - begin;

  // Shard the run's (probe row, build row) pairs into contiguous ranges.
  // Each shard gathers its candidates column-wise, applies the residual
  // and records its matches locally; shard-order merge then reproduces
  // pair order.
  const std::vector<RowRange> shards =
      ShardRows(offsets.back(), parallelism_, kProbeShardMinRows);
  struct PairShard {
    ColumnBatch out;                    // kept candidates, owned
    std::vector<size_t> matched_build;  // build rows kept by residual
    std::vector<size_t> matched_probe;  // run rows kept, ascending
  };
  std::vector<PairShard> locals(shards.size());
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, shards.size(), [&](size_t s) -> Status {
        PairShard& local = locals[s];
        const size_t lo = shards[s].begin;
        const size_t hi = shards[s].end;
        std::vector<uint32_t> cand_row;    // probe row of each candidate
        std::vector<uint32_t> cand_build;  // its build row
        cand_row.reserve(hi - lo);
        cand_build.reserve(hi - lo);
        size_t r = static_cast<size_t>(
            std::upper_bound(offsets.begin(), offsets.end(), lo) -
            offsets.begin() - 1);
        for (; r < run_rows && offsets[r] < hi; ++r) {
          const size_t from = std::max(lo, offsets[r]);
          const size_t to = std::min(hi, offsets[r + 1]);
          if (from >= to) continue;
          const std::vector<size_t>& matches = *probe_matches_[begin + r];
          for (size_t p = from; p < to; ++p) {
            cand_row.push_back(static_cast<uint32_t>(begin + r));
            cand_build.push_back(
                static_cast<uint32_t>(matches[p - offsets[r]]));
          }
        }
        ColumnBatch cand_batch =
            JoinedRows(cand_build, probe_batch_, cand_row);

        // Residual conjuncts filter the candidates; only passing rows
        // count as matches.
        std::vector<SeriesMemo>& memos = residual_memos_[s];
        PrepareMemos(&memos, cand_batch);
        std::vector<uint32_t> kept;
        for (size_t k = 0; k < cand_batch.num_rows(); ++k) {
          bool ok = true;
          for (SeriesMemo& e : memos) {
            EXPLAINIT_ASSIGN_OR_RETURN(ok, e.Test(cand_batch, k));
            if (!ok) break;
          }
          if (!ok) continue;
          kept.push_back(static_cast<uint32_t>(k));
          local.matched_build.push_back(cand_build[k]);
          const uint32_t run_row = cand_row[k] - static_cast<uint32_t>(begin);
          if (local.matched_probe.empty() ||
              local.matched_probe.back() != run_row) {
            local.matched_probe.push_back(run_row);
          }
        }
        if (kept.size() == cand_batch.num_rows()) {
          local.out = std::move(cand_batch);
        } else {
          local.out = cand_batch.Gather(kept);
          local.out.set_schema(&schema_);
        }
        return Status::OK();
      }));

  // Merge match bookkeeping in shard order (deterministic, and the only
  // writer of build_matched_ once the shards have joined).
  std::vector<char> probe_matched(run_rows, 0);
  size_t match_rows = 0;
  for (const PairShard& local : locals) {
    for (const size_t j : local.matched_build) build_matched_[j] = 1;
    for (const size_t r : local.matched_probe) probe_matched[r] = 1;
    match_rows += local.out.num_rows();
  }

  // Pad the run's unmatched probe rows for LEFT (probe = left) / FULL
  // OUTER: probe values on the probe side's columns, nulls on the build
  // side's.
  std::vector<uint32_t> pads;
  if (NeedsProbePads()) {
    for (size_t r = 0; r < run_rows; ++r) {
      if (!probe_matched[r]) pads.push_back(static_cast<uint32_t>(begin + r));
    }
  }
  if (locals.size() == 1 && pads.empty()) return std::move(locals[0].out);
  std::vector<ColumnBatch> parts;
  for (PairShard& local : locals) {
    if (local.out.num_rows() > 0) parts.push_back(std::move(local.out));
  }
  if (!pads.empty()) {
    // Probe values on the probe side's columns, nulls on the build side's.
    std::vector<table::Column> probe_cols = table::GatherColumns(
        probe_batch_.columns(), pads.data(), pads.size());
    ColumnBatch pad(&schema_, pads.size());
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      if (c >= probe_offset_ && c < probe_offset_ + probe_width_) {
        pad.AddOwnedColumn(std::move(probe_cols[c - probe_offset_]));
      } else {
        pad.AddOwnedColumn(std::vector<Value>(pads.size()));
      }
    }
    parts.push_back(std::move(pad));
  }
  ColumnBatch out(&schema_, match_rows + pads.size());
  for (table::Column& col : table::ConcatBatches(schema_, parts, Serially)) {
    out.AddOwnedColumn(std::move(col));
  }
  return out;
}

ColumnBatch HashJoinOperator::JoinedRows(
    const std::vector<uint32_t>& build_rows, const ColumnBatch& probe,
    const std::vector<uint32_t>& probe_rows) const {
  const ColumnBatch build =
      ColumnBatch::View(build_table_, 0, build_table_.num_rows());
  std::vector<table::Column> build_cols = table::GatherColumns(
      build.columns(), build_rows.data(), build_rows.size());
  std::vector<table::Column> probe_cols = table::GatherColumns(
      probe.columns(), probe_rows.data(), probe_rows.size());
  ColumnBatch out(&schema_, build_rows.size());
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    const bool from_build = c >= build_offset_ && c < build_offset_ + build_width_;
    out.AddOwnedColumn(std::move(
        from_build ? build_cols[c - build_offset_]
                   : probe_cols[c - probe_offset_]));
  }
  return out;
}

Result<ColumnBatch> HashJoinOperator::NextImpl(bool* eof) {
  while (!probe_done_) {
    if (probe_pos_ == probe_batch_.num_rows()) {
      EXPLAINIT_RETURN_IF_ERROR(PullProbeBatch());
      continue;
    }
    EXPLAINIT_ASSIGN_OR_RETURN(ColumnBatch out, JoinRun());
    if (out.num_rows() > 0) {
      *eof = false;
      return out;
    }
  }
  if (NeedsBuildPads() && !pads_emitted_) return FinishBuildPads(eof);
  *eof = true;
  return ColumnBatch{};
}

}  // namespace explainit::sql
