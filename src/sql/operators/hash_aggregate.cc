#include "sql/operators/hash_aggregate.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace explainit::sql {

using table::ColumnBatch;
using table::DataType;
using table::Field;
using table::Value;

namespace {

// Computes one aggregate over a set of row indices; `args` evaluate the
// call's arguments, bound to `in`.
Result<Value> ComputeAggregate(const Expr& agg, std::vector<SeriesMemo>* memos,
                               const ColumnBatch& in,
                               const std::vector<size_t>& rows) {
  const std::string& name = agg.function_name;
  PrepareMemos(memos, in);
  std::vector<SeriesMemo>& args = *memos;
  if (name == "COUNT") {
    if (agg.args.size() != 1) {
      return Status::InvalidArgument("COUNT expects 1 argument");
    }
    if (agg.args[0]->kind == ExprKind::kStar) {
      return Value::Int(static_cast<int64_t>(rows.size()));
    }
    int64_t n = 0;
    for (size_t r : rows) {
      EXPLAINIT_ASSIGN_OR_RETURN(Value v, args[0].Eval(in, r));
      if (!v.is_null()) ++n;
    }
    return Value::Int(n);
  }
  if (name == "__SUM_COUNT") {
    // COUNT partial: sums pre-counted values (rollup bucket counts, or
    // partial-aggregate counts), finalising with COUNT's integer type.
    if (agg.args.size() != 1 || agg.args[0] == nullptr ||
        agg.args[0]->kind == ExprKind::kStar) {
      return Status::InvalidArgument("__SUM_COUNT expects 1 argument");
    }
    double acc = 0.0;
    for (size_t r : rows) {
      EXPLAINIT_ASSIGN_OR_RETURN(Value v, args[0].Eval(in, r));
      if (!v.is_null()) acc += v.AsDouble();
    }
    return Value::Int(std::llround(acc));
  }
  if (agg.args.empty()) {
    return Status::InvalidArgument(name + " expects an argument");
  }
  std::vector<double> values;
  values.reserve(rows.size());
  for (size_t r : rows) {
    EXPLAINIT_ASSIGN_OR_RETURN(Value v, args[0].Eval(in, r));
    if (!v.is_null()) values.push_back(v.AsDouble());
  }
  if (values.empty()) return Value::Null();
  if (name == "SUM" || name == "AVG") {
    double acc = 0.0;
    for (double v : values) acc += v;
    if (name == "SUM") return Value::Double(acc);
    return Value::Double(acc / static_cast<double>(values.size()));
  }
  if (name == "MIN") {
    return Value::Double(*std::min_element(values.begin(), values.end()));
  }
  if (name == "MAX") {
    return Value::Double(*std::max_element(values.begin(), values.end()));
  }
  if (name == "STDDEV") {
    double mean = 0.0;
    for (double v : values) mean += v;
    mean /= static_cast<double>(values.size());
    double var = 0.0;
    for (double v : values) var += (v - mean) * (v - mean);
    var /= static_cast<double>(values.size());
    return Value::Double(std::sqrt(var));
  }
  if (name == "PERCENTILE") {
    if (agg.args.size() != 2) {
      return Status::InvalidArgument("PERCENTILE expects (expr, p)");
    }
    EXPLAINIT_ASSIGN_OR_RETURN(Value pv, args[1].Eval(in, rows[0]));
    double p = pv.AsDouble();
    if (p > 1.0) p /= 100.0;  // accept both 0.99 and 99
    p = std::clamp(p, 0.0, 1.0);
    std::sort(values.begin(), values.end());
    const double idx = p * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(idx);
    const size_t hi = std::min(values.size() - 1, lo + 1);
    const double frac = idx - static_cast<double>(lo);
    return Value::Double(values[lo] * (1.0 - frac) + values[hi] * frac);
  }
  return Status::Unimplemented("aggregate not implemented: " + name);
}

/// True when the aggregate call decomposes into flat partial states whose
/// merged finalisation matches ComputeAggregate exactly.
bool IsDecomposable(const Expr& agg) {
  const std::string& n = agg.function_name;
  if (n == "COUNT") {
    return agg.args.size() == 1 && agg.args[0] != nullptr;
  }
  if (n == "SUM" || n == "AVG" || n == "MIN" || n == "MAX" ||
      n == "__SUM_COUNT") {
    return !agg.args.empty() && agg.args[0] != nullptr &&
           agg.args[0]->kind != ExprKind::kStar;
  }
  return false;
}

/// A global aggregate item's value over an empty input: COUNT yields 0,
/// everything else NULL.
Value EmptyInputValue(const Expr& e) {
  const bool count = e.kind == ExprKind::kFunction &&
                     (e.function_name == "COUNT" ||
                      e.function_name == "__SUM_COUNT");
  return count ? Value::Int(0) : Value::Null();
}

}  // namespace

HashAggregateOperator::HashAggregateOperator(
    std::unique_ptr<Operator> input, const SelectStatement* stmt,
    const FunctionRegistry* functions, const ExecContext* ctx,
    bool retain_input)
    : stmt_(stmt), functions_(functions), ctx_(ctx),
      retain_input_(retain_input) {
  input_ = AddChild(std::move(input));
}


Status HashAggregateOperator::OpenImpl() {
  EXPLAINIT_RETURN_IF_ERROR(input_->Open());
  bool lag_anywhere = false;
  for (const SelectItem& item : stmt_->items) {
    if (item.is_star) {
      return Status::InvalidArgument("SELECT * with GROUP BY is not allowed");
    }
    schema_.AddField(Field{ItemName(item), DataType::kNull});
    if (ContainsLag(*item.expr)) lag_anywhere = true;
    CollectAggregates(*item.expr, &agg_nodes_);
  }
  for (const ExprPtr& g : stmt_->group_by) {
    if (ContainsLag(*g)) lag_anywhere = true;
  }
  if (stmt_->having != nullptr) {
    if (ContainsLag(*stmt_->having)) lag_anywhere = true;
    CollectAggregates(*stmt_->having, &agg_nodes_);
  }
  // Partial states fold batch by batch, which LAG (a read of the
  // neighbouring row of the whole input) cannot survive.
  partial_ok_ = !lag_anywhere &&
                std::all_of(agg_nodes_.begin(), agg_nodes_.end(),
                            [](const Expr* a) { return IsDecomposable(*a); });
  for (size_t i = 0; i < agg_nodes_.size(); ++i) slot_of_[agg_nodes_[i]] = i;

  const table::Schema& in = input_->output_schema();
  for (const ExprPtr& g : stmt_->group_by) {
    keys_.emplace_back(*g, in, functions_);
  }
  for (const Expr* agg : agg_nodes_) {
    std::vector<BoundExpr>& args = agg_args_.emplace_back();
    for (const ExprPtr& a : agg->args) args.emplace_back(*a, in, functions_);
  }
  for (const SelectItem& item : stmt_->items) {
    items_.emplace_back(*item.expr, in, functions_, &slot_of_);
  }
  if (stmt_->having != nullptr) {
    having_.emplace(*stmt_->having, in, functions_, &slot_of_);
  }
  acc_ = table::Table(in);
  return Status::OK();
}

Result<ColumnBatch> HashAggregateOperator::NextImpl(bool* eof) {
  if (done_) {
    *eof = true;
    return ColumnBatch{};
  }
  done_ = true;
  return partial_ok_ ? PartialNext(eof) : IndexNext(eof);
}

table::ColumnBatch HashAggregateOperator::EmitRows(
    std::vector<table::Column> cols, size_t rows) {
  ColumnBatch out(&schema_, rows);
  for (auto& col : cols) out.AddOwnedColumn(std::move(col));
  return out;
}

Status HashAggregateOperator::MaterializeInputShards() {
  EXPLAINIT_RETURN_IF_ERROR(Drain(input_, &acc_));
  retained_ptr_ = &acc_;
  morsels_.clear();
  for (const RowRange& range :
       ShardRows(acc_.num_rows(), EffectiveParallelism(ctx_))) {
    if (range.size() == 0) continue;
    morsels_.push_back(
        ColumnBatch::View(acc_, range.begin, range.size()));
  }
  return Status::OK();
}

Result<ColumnBatch> HashAggregateOperator::FinishGroups(
    size_t num_groups, const std::vector<const ColumnBatch*>& inputs,
    const std::function<GroupRow(size_t)>& group_row,
    const SlotValue& slot_value) {
  const size_t num_items = items_.size();
  // An item that is series-level over every input batch, with the same
  // dictionaries throughout, reads the memo per group and comes out as a
  // dictionary column. Items whose code arrays coincide in every input
  // code every group alike, so they share one output code array.
  std::vector<char> series(num_items, 0);
  std::vector<std::vector<const uint32_t*>> signature(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    std::vector<const table::Dictionary*> dicts;
    bool ok = !inputs.empty();
    for (const ColumnBatch* in : inputs) {
      ok = ok && in->num_rows() > 0 && SeriesLevel(items_[i], *in);
      if (!ok) break;
      std::vector<const table::Dictionary*> here;
      for (const size_t c : items_[i].columns()) {
        here.push_back(in->column(c).dictionary().get());
      }
      if (dicts.empty()) dicts = here;
      ok = here == dicts;
      signature[i].push_back(in->column(items_[i].columns()[0]).codes());
    }
    series[i] = ok ? 1 : 0;
  }

  const std::vector<RowRange> shards =
      ShardRows(num_groups, EffectiveParallelism(ctx_));
  std::vector<char> keep(num_groups, 1);
  std::vector<std::vector<Value>> values(num_items);
  std::vector<std::vector<uint32_t>> codes(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    if (series[i]) {
      codes[i].resize(num_groups);
    } else {
      values[i].resize(num_groups);
    }
  }
  std::vector<std::vector<SeriesMemo>> item_memos(shards.size(),
                                                  MakeMemos(items_));
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, shards.size(), [&](size_t s) -> Status {
        std::vector<SeriesMemo>& memos = item_memos[s];
        SeriesMemo having(having_.has_value() ? &*having_ : nullptr);
        size_t gi = 0;
        const SlotReader slots = [&](size_t slot) {
          return slot_value(gi, slot, s);
        };
        const ColumnBatch* prepared = nullptr;  // the memos' batch
        Status error;
        Value scratch;
        for (gi = shards[s].begin; gi < shards[s].end; ++gi) {
          const GroupRow g = group_row(gi);
          if (g.in == nullptr) {
            // Global aggregate over an empty input: NULL/0 per item.
            for (size_t i = 0; i < num_items; ++i) {
              values[i][gi] = EmptyInputValue(*stmt_->items[i].expr);
            }
            continue;
          }
          if (g.in != prepared) {
            PrepareMemos(&memos, *g.in);
            if (having_.has_value()) having.Prepare(*g.in);
            prepared = g.in;
          }
          if (having_.has_value()) {
            EXPLAINIT_ASSIGN_OR_RETURN(Value v,
                                       having.Eval(*g.in, g.row, &slots));
            if (v.is_null() || !v.AsBool()) {
              keep[gi] = 0;
              continue;
            }
          }
          for (size_t i = 0; i < num_items; ++i) {
            SeriesMemo& memo = memos[i];
            Value& out = series[i] ? scratch : values[i][gi];
            const Value* v = memo.Ref(*g.in, g.row, &out, &error, &slots);
            if (v == nullptr) return error;
            if (series[i]) {
              codes[i][gi] = memo.code(g.row);
            } else if (v != &out) {
              out = *v;
            }
          }
        }
        return Status::OK();
      }));

  // Emit the kept groups in first-appearance order.
  std::vector<uint32_t> kept;
  kept.reserve(num_groups);
  for (size_t gi = 0; gi < num_groups; ++gi) {
    if (keep[gi]) kept.push_back(static_cast<uint32_t>(gi));
  }
  std::vector<table::Column> cols(num_items);
  std::vector<std::shared_ptr<const table::CodeArray>> out_codes(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    if (!series[i]) {
      std::vector<Value> col;
      if (kept.size() == num_groups) {
        col = std::move(values[i]);
      } else {
        col.reserve(kept.size());
        for (const uint32_t gi : kept) col.push_back(std::move(values[i][gi]));
      }
      cols[i] = table::Column(std::move(col));
      continue;
    }
    size_t num_codes = 0;
    for (const auto& memos : item_memos) {
      num_codes = std::max(num_codes, memos[i].num_codes());
    }
    auto dict = std::make_shared<table::Dictionary>(num_codes);
    for (const auto& memos : item_memos) {
      for (uint32_t k = 0; k < memos[i].num_codes(); ++k) {
        if (const Value* v = memos[i].entry(k)) (*dict)[k] = *v;
      }
    }
    for (size_t j = 0; j < i && out_codes[i] == nullptr; ++j) {
      if (series[j] && signature[j] == signature[i]) out_codes[i] = out_codes[j];
    }
    if (out_codes[i] == nullptr) {
      auto c = std::make_shared<table::CodeArray>();
      c->reserve(kept.size());
      for (const uint32_t gi : kept) c->push_back(codes[i][gi]);
      out_codes[i] = std::move(c);
    }
    cols[i] = table::Column(std::move(dict), out_codes[i], 0, kept.size());
  }
  return EmitRows(std::move(cols), kept.size());
}

// ---------------------------------------------------------------------------
// Partial-aggregation mode
// ---------------------------------------------------------------------------

Status HashAggregateOperator::PartialAccumulate(const ColumnBatch& batch,
                                                uint32_t batch_index,
                                                ShardGroups* local,
                                                ShardMemos* memos) const {
  const size_t num_slots = agg_nodes_.size();
  PrepareMemos(&memos->keys, batch);
  PrepareMemos(&memos->args, batch);
  std::string key;
  Value scratch;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    // The key encodes into reused storage; only a first-seen key pays a
    // std::string copy.
    EXPLAINIT_RETURN_IF_ERROR(EncodeKey(&memos->keys, batch, r, &key).status());
    bool inserted = false;
    const size_t id = local->keys.FindOrInsert(key, &inserted);
    if (inserted) {
      GroupPartial g;
      g.first_batch = batch_index;
      g.first_row = static_cast<uint32_t>(r);
      local->groups.push_back(g);
      local->slots.resize(local->slots.size() + num_slots);
    }
    GroupPartial& g = local->groups[id];
    PartialState* slots = local->slots.data() + id * num_slots;
    ++g.rows;
    for (size_t i = 0; i < num_slots; ++i) {
      if (agg_nodes_[i]->args[0]->kind == ExprKind::kStar) continue;
      PartialState& st = slots[i];
      if (!st.error.ok()) continue;
      // An argument error is deferred like index mode's: it surfaces
      // only if the group survives HAVING and the slot is consulted.
      const Value* v = memos->args[i].Ref(batch, r, &scratch, &st.error);
      if (v == nullptr || v->is_null()) continue;
      st.Accumulate(v->AsDouble());
    }
  }
  return Status::OK();
}

Result<ColumnBatch> HashAggregateOperator::PartialNext(bool* eof) {
  // Morsel source: buffer the child's own batches (each stays valid
  // until the child is destroyed) unless the pre-aggregation rows must
  // be retained; then drain once and shard the materialised rows.
  if (!retain_input_) {
    bool child_eof = false;
    while (true) {
      EXPLAINIT_ASSIGN_OR_RETURN(ColumnBatch batch, input_->Next(&child_eof));
      if (child_eof) break;
      if (batch.num_rows() > 0) morsels_.push_back(std::move(batch));
    }
  } else {
    EXPLAINIT_RETURN_IF_ERROR(MaterializeInputShards());
  }
  size_t total_rows = 0;
  for (const ColumnBatch& m : morsels_) total_rows += m.num_rows();

  if (total_rows == 0 && !stmt_->group_by.empty()) {
    *eof = false;
    stats_.detail = "0 groups (partial)";
    return EmitRows(std::vector<table::Column>(schema_.num_fields()), 0);
  }
  if (total_rows == 0) {
    // Global aggregate over an empty input: aggregates yield NULL/0.
    std::vector<table::Column> cols(schema_.num_fields());
    for (size_t i = 0; i < stmt_->items.size(); ++i) {
      cols[i].Push(EmptyInputValue(*stmt_->items[i].expr));
    }
    *eof = false;
    stats_.detail = "1 group (partial)";
    return EmitRows(std::move(cols), 1);
  }

  // Assign contiguous batch runs to shards, balancing by row count. The
  // assignment depends only on the batch layout and the parallelism knob,
  // so merges happen in a deterministic order.
  const size_t want_shards = std::max<size_t>(
      1, std::min<size_t>(EffectiveParallelism(ctx_),
                          std::max<size_t>(1, total_rows / 1024)));
  std::vector<std::pair<size_t, size_t>> runs;  // [batch_begin, batch_end)
  {
    size_t cum = 0;
    size_t start = 0;
    for (size_t b = 0; b < morsels_.size(); ++b) {
      cum += morsels_[b].num_rows();
      if (cum * want_shards >= total_rows * (runs.size() + 1) ||
          b + 1 == morsels_.size()) {
        runs.emplace_back(start, b + 1);
        start = b + 1;
      }
    }
  }

  // Phase 1: per-shard grouping with flat partial states.
  std::vector<ShardGroups> shards(runs.size());
  EXPLAINIT_RETURN_IF_ERROR(RunSharded(
      ctx_, runs.size(), [&](size_t s) -> Status {
        ShardGroups& local = shards[s];
        ShardMemos memos{MakeMemos(keys_), {}};
        for (const std::vector<BoundExpr>& args : agg_args_) {
          memos.args.emplace_back(args.empty() ? nullptr : &args[0]);
        }
        for (size_t b = runs[s].first; b < runs[s].second; ++b) {
          EXPLAINIT_RETURN_IF_ERROR(PartialAccumulate(
              morsels_[b], static_cast<uint32_t>(b), &local, &memos));
        }
        return Status::OK();
      }));

  // Merge stage: combine per-shard partials in shard order (shard order
  // is row order, so first-appearance order and first-error-wins both
  // match index mode).
  const size_t num_slots = agg_nodes_.size();
  ShardGroups merged;
  for (ShardGroups& local : shards) {
    if (merged.groups.empty()) {
      merged = std::move(local);
      continue;
    }
    for (size_t li = 0; li < local.groups.size(); ++li) {
      const GroupPartial& lg = local.groups[li];
      const PartialState* lslots = local.slots.data() + li * num_slots;
      bool inserted = false;
      const size_t id = merged.keys.FindOrInsert(local.keys.key(li), &inserted);
      if (inserted) {
        merged.groups.push_back(lg);
        merged.slots.insert(merged.slots.end(), lslots,
                            lslots + num_slots);
        continue;
      }
      GroupPartial& g = merged.groups[id];
      PartialState* slots = merged.slots.data() + id * num_slots;
      g.rows += lg.rows;
      for (size_t i = 0; i < num_slots; ++i) {
        const PartialState& a = lslots[i];
        PartialState& st = slots[i];
        if (st.error.ok() && !a.error.ok()) st.error = a.error;
        if (a.non_null == 0) continue;
        if (st.non_null == 0) {
          st.min = a.min;
          st.max = a.max;
        } else {
          st.min = std::min(st.min, a.min);
          st.max = std::max(st.max, a.max);
        }
        st.sum += a.sum;
        st.non_null += a.non_null;
      }
    }
  }

  // Finalisation: the slot leaves of HAVING and the select list read the
  // merged partials; groups evaluate in parallel.
  const size_t num_groups = merged.groups.size();
  enum class Kind { kCountStar, kCount, kSumCount, kSum, kAvg, kMin, kMax };
  std::vector<Kind> kinds;
  for (const Expr* agg : agg_nodes_) {
    const std::string& n = agg->function_name;
    kinds.push_back(n == "COUNT" ? (agg->args[0]->kind == ExprKind::kStar
                                        ? Kind::kCountStar
                                        : Kind::kCount)
                    : n == "__SUM_COUNT" ? Kind::kSumCount
                    : n == "SUM"         ? Kind::kSum
                    : n == "AVG"         ? Kind::kAvg
                    : n == "MIN"         ? Kind::kMin
                                         : Kind::kMax);
  }
  auto finalize_slot = [&](size_t gi, size_t slot, size_t) -> Result<Value> {
    const size_t at = gi * num_slots + slot;
    const PartialState& st = merged.slots[at];
    if (!st.error.ok()) return st.error;
    switch (kinds[slot]) {
      case Kind::kCountStar:
        return Value::Int(static_cast<int64_t>(merged.groups[gi].rows));
      case Kind::kCount:
        return Value::Int(st.non_null);
      case Kind::kSumCount:
        return st.non_null == 0 ? Value::Int(0)
                                : Value::Int(std::llround(st.sum));
      default:
        break;
    }
    if (st.non_null == 0) return Value::Null();
    switch (kinds[slot]) {
      case Kind::kSum:
        return Value::Double(st.sum);
      case Kind::kAvg:
        return Value::Double(st.sum / static_cast<double>(st.non_null));
      case Kind::kMin:
        return Value::Double(st.min);
      default:
        return Value::Double(st.max);
    }
  };
  std::vector<const ColumnBatch*> inputs;
  for (const ColumnBatch& m : morsels_) inputs.push_back(&m);
  EXPLAINIT_ASSIGN_OR_RETURN(
      ColumnBatch out,
      FinishGroups(
          num_groups, inputs,
          [&](size_t gi) {
            const GroupPartial& g = merged.groups[gi];
            return GroupRow{&morsels_[g.first_batch], g.first_row};
          },
          finalize_slot));
  *eof = false;
  stats_.detail = std::to_string(num_groups) + " groups (partial, " +
                  std::to_string(runs.size()) + " shards)";
  return out;
}

// ---------------------------------------------------------------------------
// Index mode (non-decomposable aggregates, or LAG anywhere)
// ---------------------------------------------------------------------------

Result<ColumnBatch> HashAggregateOperator::IndexNext(bool* eof) {
  EXPLAINIT_RETURN_IF_ERROR(MaterializeInputShards());
  const ColumnBatch all = ColumnBatch::View(acc_, 0, acc_.num_rows());
  const std::vector<RowRange> shards =
      ShardRows(acc_.num_rows(), EffectiveParallelism(ctx_));

  // Phase 1: per-shard grouping of row indices (ascending within a
  // shard), group ids in first-seen key order.
  struct ShardIndex {
    KeyIndex keys;
    std::vector<std::vector<size_t>> rows;  // by group id
  };
  std::vector<ShardIndex> locals(shards.size());
  std::vector<std::vector<size_t>> groups;  // rows by group, in order
  if (!stmt_->group_by.empty()) {
    EXPLAINIT_RETURN_IF_ERROR(RunSharded(
        ctx_, shards.size(), [&](size_t s) -> Status {
          ShardIndex& local = locals[s];
          std::vector<SeriesMemo> memos = MakeMemos(keys_);
          PrepareMemos(&memos, all);
          std::string key;
          for (size_t r = shards[s].begin; r < shards[s].end; ++r) {
            EXPLAINIT_RETURN_IF_ERROR(
                EncodeKey(&memos, all, r, &key).status());
            bool inserted = false;
            const size_t id = local.keys.FindOrInsert(key, &inserted);
            if (inserted) local.rows.emplace_back();
            local.rows[id].push_back(r);
          }
          return Status::OK();
        }));
    // Merge in shard order: concatenation keeps row indices ascending and
    // first-appearance order identical to the seed's row order.
    KeyIndex merged;
    for (ShardIndex& local : locals) {
      for (size_t li = 0; li < local.rows.size(); ++li) {
        std::vector<size_t>& rows = local.rows[li];
        bool inserted = false;
        const size_t id = merged.FindOrInsert(local.keys.key(li), &inserted);
        if (inserted) {
          groups.push_back(std::move(rows));
        } else {
          groups[id].insert(groups[id].end(), rows.begin(), rows.end());
        }
      }
    }
  } else {
    std::vector<size_t>& all_rows = groups.emplace_back(acc_.num_rows());
    std::iota(all_rows.begin(), all_rows.end(), size_t{0});
  }

  // Phase 2: per-group evaluation, fanned out across groups. Slot leaves
  // compute their aggregate over the group's rows.
  const size_t num_groups = groups.size();
  const size_t num_shards =
      ShardRows(num_groups, EffectiveParallelism(ctx_)).size();
  std::vector<std::vector<std::vector<SeriesMemo>>> arg_memos(num_shards);
  for (auto& memos : arg_memos) {
    for (const std::vector<BoundExpr>& args : agg_args_) {
      memos.push_back(MakeMemos(args));
    }
  }
  EXPLAINIT_ASSIGN_OR_RETURN(
      ColumnBatch out,
      FinishGroups(
          num_groups, {&all},
          [&](size_t gi) {
            const std::vector<size_t>& rows = groups[gi];
            return rows.empty() ? GroupRow{nullptr, 0}
                                : GroupRow{&all, rows[0]};
          },
          [&](size_t gi, size_t slot, size_t s) {
            return ComputeAggregate(*agg_nodes_[slot], &arg_memos[s][slot],
                                    all, groups[gi]);
          }));
  *eof = false;
  stats_.detail = std::to_string(num_groups) + " groups (" +
                  std::to_string(shards.size()) + " shards)";
  return out;
}

}  // namespace explainit::sql
