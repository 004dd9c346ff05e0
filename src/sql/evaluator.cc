#include "sql/evaluator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/strings.h"

namespace explainit::sql {

using table::ColumnBatch;
using table::DataType;
using table::Value;

bool SqlLikeMatch(std::string_view pattern, std::string_view text) {
  return WildcardMatch(pattern, text, '%', '_');
}

Result<size_t> ResolveColumn(const Expr& expr, const table::Schema& schema) {
  if (!expr.qualifier.empty()) {
    const std::string full = expr.qualifier + "." + expr.column;
    if (auto idx = schema.FieldIndex(full); idx.has_value()) return *idx;
    if (auto idx = schema.FieldIndex(expr.column); idx.has_value()) {
      return *idx;
    }
    return Status::NotFound("column not found: " + full);
  }
  if (auto idx = schema.FieldIndex(expr.column); idx.has_value()) return *idx;
  // Unique suffix match over qualified join-output names.
  const std::string suffix = "." + ToLower(expr.column);
  std::optional<size_t> found;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    if (EndsWith(ToLower(schema.field(i).name), suffix)) {
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous column: " + expr.column);
      }
      found = i;
    }
  }
  if (found.has_value()) return *found;
  return Status::NotFound("column not found: " + expr.column);
}

namespace {

void AppendLength(size_t n, std::string* key) {
  key->append(reinterpret_cast<const char*>(&n), sizeof n);
}

}  // namespace

bool AppendKey(const Value& v, std::string* key) {
  switch (v.type()) {
    case DataType::kNull:
      key->push_back('N');
      return false;
    case DataType::kDouble:
    case DataType::kInt64:
    case DataType::kTimestamp: {
      // One canonical double per `=` class: -0.0 = 0.0, and every NaN
      // payload groups together.
      double d = v.AsDouble();
      const bool nan = std::isnan(d);
      if (nan) d = std::numeric_limits<double>::quiet_NaN();
      if (d == 0.0) d = 0.0;
      key->push_back('D');
      key->append(reinterpret_cast<const char*>(&d), sizeof d);
      return !nan;
    }
    case DataType::kString: {
      const std::string& s = *v.TryString();
      key->push_back('S');
      AppendLength(s.size(), key);
      key->append(s);
      return true;
    }
    case DataType::kMap: {
      const table::ValueMap& map = *v.AsMap();
      key->push_back('M');
      AppendLength(map.size(), key);
      bool matchable = true;
      for (const auto& [k, e] : map) {
        AppendLength(k.size(), key);
        key->append(k);
        matchable = AppendKey(e, key) && matchable;
      }
      return matchable;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Bound programs
// ---------------------------------------------------------------------------

namespace internal {

struct BoundNode {
  enum class Op {
    kError,    // an unresolved name: returns `error` when evaluated
    kLiteral,
    kColumn,   // input column `index`
    kSlot,     // aggregate slot `index` of the current group
    kLifted,   // the enclosing kEager node's child value `index`
    kEager,    // kids[0] over kLifted leaves, after evaluating kids[1..]
    kSubscript,
    kCall,
    kLag,
    kUnary,
    kBinary,
    kInList,
    kInSet,    // kInList whose items are all literals: `keys` holds them
    kBetween,
    kIsNull,
    kCase,
  };
  Op op = Op::kError;
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kAdd;
  bool negated = false;   // NOT IN / NOT BETWEEN / IS NOT NULL
  bool has_else = false;  // kCase: kids[0] is the ELSE result
  size_t index = 0;
  Value literal;
  Status error;
  const ScalarFn* fn = nullptr;  // kCall
  /// kInSet: the AppendKey encodings of the list's non-NULL, non-NaN
  /// items (the items `=` can match).
  std::unique_ptr<const std::unordered_set<std::string>> keys;
  /// Index of this node's SeriesMemo table when it is a candidate
  /// sub-program (see BoundExpr::Candidate), else -1.
  int memo = -1;
  /// Children in ast.h slot order (left, right, between bounds, CASE
  /// ELSE, args, IN list, CASE branches).
  std::vector<BoundNode> kids;
};

/// True when every one of `columns` (at least one) is a dictionary column
/// of `in` and all of them share one code array.
bool SharedCodes(const std::vector<size_t>& columns, const ColumnBatch& in) {
  const uint32_t* codes = in.column(columns[0]).codes();
  for (const size_t c : columns) {
    const table::ColumnView& col = in.column(c);
    if (!col.is_dictionary() || col.codes() != codes) return false;
  }
  return true;
}

/// One candidate sub-program's per-code entries in one SeriesMemo.
struct MemoTable {
  enum : uint8_t { kValue = 1, kError = 2, kKeyed = 4, kMatchable = 8 };
  bool active = false;
  const uint32_t* codes = nullptr;  // the prepared batch's codes
  std::vector<std::shared_ptr<const table::Dictionary>> dicts;
  std::vector<uint8_t> state;  // per code
  std::vector<const Value*> values;
  std::vector<Value> owned;
  std::vector<std::string> keys;
  std::unordered_map<uint32_t, Status> errors;

  /// Activates the table for `in` when `columns` are series-level there,
  /// clearing the entries when their dictionaries changed.
  bool Prepare(const std::vector<size_t>& columns, const ColumnBatch& in) {
    active = SharedCodes(columns, in);
    if (!active) return false;
    bool same_dicts = dicts.size() == columns.size();
    for (size_t i = 0; i < columns.size() && same_dicts; ++i) {
      same_dicts = dicts[i] == in.column(columns[i]).dictionary();
    }
    if (!same_dicts) {
      dicts.clear();
      for (const size_t c : columns) dicts.push_back(in.column(c).dictionary());
      const size_t n = dicts[0]->size();
      state.assign(n, 0);
      values.assign(n, nullptr);
      owned.clear();
      owned.resize(n);
      keys.clear();
      errors.clear();
    }
    codes = in.column(columns[0]).codes();
    return true;
  }
};

/// One evaluation's inputs; `error` receives the failure of a null
/// return. With `memo`, the candidate nodes it prepared read its tables.
struct Frame {
  const ColumnBatch* in;
  const SlotReader* slots;
  const Value* lifted;
  Status* error;
  SeriesMemo* memo;

  /// `n`'s active table when it has one.
  MemoTable* Table(const BoundNode& n) const {
    if (n.memo < 0 || memo == nullptr) return nullptr;
    MemoTable& t = memo->tables_[static_cast<size_t>(n.memo)];
    return t.active ? &t : nullptr;
  }
};

}  // namespace internal

namespace {

using Node = internal::BoundNode;
using internal::Frame;
using internal::MemoTable;
using Op = Node::Op;

const Value kNull;
const Value kFalse = Value::Bool(false);
const Value kTrue = Value::Bool(true);

const Value* Bool(bool b) { return b ? &kTrue : &kFalse; }

struct Binder {
  const table::Schema& schema;
  const FunctionRegistry* functions;
  const std::unordered_map<const Expr*, size_t>* slots;

  static Node Error(Status s) {
    Node n;
    n.error = std::move(s);
    return n;
  }

  Node Bind(const Expr& e) const {
    if (slots != nullptr) {
      if (auto it = slots->find(&e); it != slots->end()) {
        Node n;
        n.op = Op::kSlot;
        n.index = it->second;
        return n;
      }
      if (e.ContainsAggregate()) {
        Node n;
        n.op = Op::kEager;
        n.kids.push_back(Operation(e, /*lifted=*/true));
        ForEachChild(e, [&](const Expr& c) { n.kids.push_back(Bind(c)); });
        return n;
      }
    }
    return Operation(e, /*lifted=*/false);
  }

  /// `e`'s own operation; its children are bound programs, or with
  /// `lifted` the values a kEager parent evaluated first.
  Node Operation(const Expr& e, bool lifted) const {
    Node n;
    switch (e.kind) {
      case ExprKind::kLiteral:
        n.op = Op::kLiteral;
        n.literal = e.literal;
        return n;
      case ExprKind::kStar:
        return Error(
            Status::InvalidArgument("'*' is only valid in COUNT(*)"));
      case ExprKind::kColumnRef: {
        Result<size_t> idx = ResolveColumn(e, schema);
        if (!idx.ok()) return Error(idx.status());
        n.op = Op::kColumn;
        n.index = *idx;
        return n;
      }
      case ExprKind::kFunction:
        if (IsAggregateFunction(e.function_name)) {
          return Error(Status::InvalidArgument(
              "aggregate " + e.function_name + " in a scalar context"));
        }
        if (e.function_name == "LAG") {
          if (e.args.empty() || e.args.size() > 2) {
            return Error(
                Status::InvalidArgument("LAG expects 1 or 2 arguments"));
          }
          n.op = Op::kLag;
          break;
        }
        n.fn = functions->Find(e.function_name);
        if (n.fn == nullptr) {
          return Error(
              Status::NotFound("unknown function: " + e.function_name));
        }
        n.op = Op::kCall;
        break;
      case ExprKind::kSubscript:
        n.op = Op::kSubscript;
        break;
      case ExprKind::kUnary:
        n.op = Op::kUnary;
        n.unary_op = e.unary_op;
        break;
      case ExprKind::kBinary:
        n.op = Op::kBinary;
        n.binary_op = e.binary_op;
        break;
      case ExprKind::kInList:
        n.negated = e.negated;
        if (!lifted && !e.list.empty() &&
            std::all_of(e.list.begin(), e.list.end(),
                        [](const ExprPtr& i) {
                          return i->kind == ExprKind::kLiteral;
                        })) {
          // Bound once: `subject = item` holds exactly when their key
          // encodings match and both are matchable (non-NULL, non-NaN).
          n.op = Op::kInSet;
          auto keys = std::make_unique<std::unordered_set<std::string>>();
          for (const ExprPtr& i : e.list) {
            std::string key;
            if (AppendKey(i->literal, &key)) keys->insert(std::move(key));
          }
          n.keys = std::move(keys);
          n.kids.push_back(Bind(*e.left));
          return n;
        }
        n.op = Op::kInList;
        break;
      case ExprKind::kBetween:
        n.op = Op::kBetween;
        n.negated = e.negated;
        break;
      case ExprKind::kIsNull:
        n.op = Op::kIsNull;
        n.negated = e.negated;
        break;
      case ExprKind::kCase:
        n.op = Op::kCase;
        n.has_else = e.case_else != nullptr;
        break;
    }
    ForEachChild(e, [&](const Expr& c) {
      if (!lifted) {
        n.kids.push_back(Bind(c));
        return;
      }
      Node leaf;
      leaf.op = Op::kLifted;
      leaf.index = n.kids.size();
      n.kids.push_back(std::move(leaf));
    });
    return n;
  }
};

const Value* Fail(const Frame& f, Status s) {
  *f.error = std::move(s);
  return nullptr;
}

/// LAG's row offset; false when no row index can reach it (a double that
/// is non-finite or outside int64).
bool LagOffset(const Value& v, int64_t* out) {
  if (v.type() == DataType::kDouble) {
    const double d = v.AsDouble();
    if (!(d >= -0x1p63 && d < 0x1p63)) return false;
  }
  *out = v.AsInt();
  return true;
}

const Value* EvalOp(const Node& n, const Frame& f, size_t row, Value* s);

/// Evaluates `n` at `row`: the result lives in `f.in`, the program, the
/// lifted values, a memo table, or `*s`; null on error. Children
/// evaluate into their own locals, so a child's address never aliases
/// `*s`. A node with an active memo table runs once per code: its
/// result (or error) is kept at the code's first evaluation, and that
/// result stays valid, living in the table, the program or a dictionary
/// the table holds.
const Value* EvalNode(const Node& n, const Frame& f, size_t row, Value* s) {
  MemoTable* t = f.Table(n);
  if (t == nullptr) return EvalOp(n, f, row, s);
  const uint32_t c = t->codes[row];
  if (t->state[c] & MemoTable::kValue) return t->values[c];
  if (t->state[c] & MemoTable::kError) {
    *f.error = t->errors.at(c);
    return nullptr;
  }
  const Value* v = EvalOp(n, f, row, &t->owned[c]);
  if (v == nullptr) {
    t->errors[c] = *f.error;
    t->state[c] = MemoTable::kError;
    return nullptr;
  }
  t->values[c] = v;
  t->state[c] = MemoTable::kValue;
  return v;
}

/// `n`'s own operation (EvalNode without the memo).
const Value* EvalOp(const Node& n, const Frame& f, size_t row, Value* s) {
  switch (n.op) {
    case Op::kError:
      return Fail(f, n.error);
    case Op::kLiteral:
      return &n.literal;
    case Op::kColumn:
      return &f.in->At(row, n.index);
    case Op::kLifted:
      return &f.lifted[n.index];
    case Op::kSlot: {
      Result<Value> v = (*f.slots)(n.index);
      if (!v.ok()) return Fail(f, v.status());
      *s = std::move(v).value();
      return s;
    }
    case Op::kEager: {
      std::vector<Value> lifted;
      lifted.reserve(n.kids.size() - 1);
      for (size_t i = 1; i < n.kids.size(); ++i) {
        Value t;
        const Value* v = EvalNode(n.kids[i], f, row, &t);
        if (v == nullptr) return nullptr;
        lifted.push_back(v == &t ? std::move(t) : *v);
      }
      Frame inner = f;
      inner.lifted = lifted.data();
      const Value* v = EvalNode(n.kids[0], inner, row, s);
      if (v != nullptr && v != s) {
        *s = *v;  // may point into `lifted`
        v = s;
      }
      return v;
    }
    case Op::kSubscript: {
      Value bs, is;
      const Value* base = EvalNode(n.kids[0], f, row, &bs);
      if (base == nullptr) return nullptr;
      const Value* index = EvalNode(n.kids[1], f, row, &is);
      if (index == nullptr) return nullptr;
      const table::ValueMap* map = base->AsMap();
      if (map == nullptr) {
        if (base->is_null()) return &kNull;
        return Fail(f, Status::InvalidArgument("subscript on non-map value"));
      }
      const std::string* key = index->TryString();
      const auto it = key != nullptr
                          ? map->find(*key)
                          : map->find(std::to_string(index->AsInt()));
      if (it == map->end()) return &kNull;
      if (base != &bs) return &it->second;  // the map outlives this call
      *s = it->second;
      return s;
    }
    case Op::kCall: {
      std::vector<Value> args;
      args.reserve(n.kids.size());
      for (const Node& k : n.kids) {
        Value t;
        const Value* v = EvalNode(k, f, row, &t);
        if (v == nullptr) return nullptr;
        args.push_back(v == &t ? std::move(t) : *v);
      }
      Result<Value> r = (*n.fn)(args);
      if (!r.ok()) return Fail(f, r.status());
      *s = std::move(r).value();
      return s;
    }
    case Op::kLag: {
      // LAG(expr [, offset]) over the input's row order.
      int64_t offset = 1;
      if (n.kids.size() == 2) {
        Value t;
        const Value* off = EvalNode(n.kids[1], f, row, &t);
        if (off == nullptr) return nullptr;
        if (!LagOffset(*off, &offset)) return &kNull;
      }
      int64_t target = 0;
      if (__builtin_sub_overflow(static_cast<int64_t>(row), offset,
                                 &target) ||
          target < 0 || target >= static_cast<int64_t>(f.in->num_rows())) {
        return &kNull;
      }
      return EvalNode(n.kids[0], f, static_cast<size_t>(target), s);
    }
    case Op::kUnary: {
      Value t;
      const Value* v = EvalNode(n.kids[0], f, row, &t);
      if (v == nullptr) return nullptr;
      if (v->is_null()) return &kNull;
      if (n.unary_op == UnaryOp::kNot) return Bool(!v->AsBool());
      *s = Value::Double(-v->AsDouble());
      return s;
    }
    case Op::kBinary: {
      // AND/OR stop at a decisive left side; everything else propagates
      // null.
      const BinaryOp op = n.binary_op;
      Value ls, rs;
      const Value* l = EvalNode(n.kids[0], f, row, &ls);
      if (l == nullptr) return nullptr;
      if (op == BinaryOp::kAnd && !l->is_null() && !l->AsBool()) {
        return &kFalse;
      }
      if (op == BinaryOp::kOr && !l->is_null() && l->AsBool()) return &kTrue;
      const Value* r = EvalNode(n.kids[1], f, row, &rs);
      if (r == nullptr) return nullptr;
      if (l->is_null() || r->is_null()) return &kNull;
      switch (op) {
        case BinaryOp::kAnd:
          return Bool(l->AsBool() && r->AsBool());
        case BinaryOp::kOr:
          return Bool(l->AsBool() || r->AsBool());
        case BinaryOp::kEq:
          return Bool(l->Equals(*r));
        case BinaryOp::kNe:
          return Bool(!l->Equals(*r));
        case BinaryOp::kLt:
          return Bool(l->Compare(*r) < 0);
        case BinaryOp::kLe:
          return Bool(l->Compare(*r) <= 0);
        case BinaryOp::kGt:
          return Bool(l->Compare(*r) > 0);
        case BinaryOp::kGe:
          return Bool(l->Compare(*r) >= 0);
        case BinaryOp::kLike: {
          // Strings match in place; other values match their rendering.
          std::string lbuf, rbuf;
          auto text = [](const Value& v, std::string* buf) {
            const std::string* s = v.TryString();
            return std::string_view(s != nullptr ? *s : (*buf = v.AsString()));
          };
          return Bool(SqlLikeMatch(text(*r, &rbuf), text(*l, &lbuf)));
        }
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          break;
      }
      const double a = l->AsDouble(), b = r->AsDouble();
      if ((op == BinaryOp::kDiv || op == BinaryOp::kMod) && b == 0.0) {
        return &kNull;
      }
      *s = Value::Double(op == BinaryOp::kAdd   ? a + b
                         : op == BinaryOp::kSub ? a - b
                         : op == BinaryOp::kMul ? a * b
                         : op == BinaryOp::kDiv ? a / b
                                                : std::fmod(a, b));
      return s;
    }
    case Op::kInList: {
      Value t, it;
      const Value* subject = EvalNode(n.kids[0], f, row, &t);
      if (subject == nullptr) return nullptr;
      if (subject->is_null()) return &kNull;
      bool found = false;
      for (size_t i = 1; i < n.kids.size() && !found; ++i) {
        const Value* v = EvalNode(n.kids[i], f, row, &it);
        if (v == nullptr) return nullptr;
        found = subject->Equals(*v);
      }
      return Bool(n.negated ? !found : found);
    }
    case Op::kInSet: {
      Value t;
      const Value* subject = EvalNode(n.kids[0], f, row, &t);
      if (subject == nullptr) return nullptr;
      if (subject->is_null()) return &kNull;
      thread_local std::string key;
      key.clear();
      const bool found = AppendKey(*subject, &key) && n.keys->count(key) > 0;
      return Bool(n.negated ? !found : found);
    }
    case Op::kBetween: {
      Value a, b, c;
      const Value* subject = EvalNode(n.kids[0], f, row, &a);
      if (subject == nullptr) return nullptr;
      const Value* lo = EvalNode(n.kids[1], f, row, &b);
      if (lo == nullptr) return nullptr;
      const Value* hi = EvalNode(n.kids[2], f, row, &c);
      if (hi == nullptr) return nullptr;
      if (subject->is_null() || lo->is_null() || hi->is_null()) return &kNull;
      const bool in = subject->Compare(*lo) >= 0 && subject->Compare(*hi) <= 0;
      return Bool(n.negated ? !in : in);
    }
    case Op::kIsNull: {
      Value t;
      const Value* v = EvalNode(n.kids[0], f, row, &t);
      if (v == nullptr) return nullptr;
      return Bool(n.negated ? !v->is_null() : v->is_null());
    }
    case Op::kCase: {
      Value t;
      size_t b = n.has_else ? 1 : 0;
      for (; b + 1 < n.kids.size(); b += 2) {
        const Value* cond = EvalNode(n.kids[b], f, row, &t);
        if (cond == nullptr) return nullptr;
        if (!cond->is_null() && cond->AsBool()) {
          return EvalNode(n.kids[b + 1], f, row, s);
        }
      }
      return n.has_else ? EvalNode(n.kids[0], f, row, s) : &kNull;
    }
  }
  return Fail(f, Status::Internal("unhandled expression kind"));
}

}  // namespace

BoundExpr::BoundExpr() = default;
BoundExpr::~BoundExpr() = default;
BoundExpr::BoundExpr(BoundExpr&&) noexcept = default;
BoundExpr& BoundExpr::operator=(BoundExpr&&) noexcept = default;

namespace {

/// Appends the columns `n` reads to `columns` and numbers its candidate
/// sub-programs into `candidates` (children first); false when `n` reads
/// another row (LAG) or group state (slots).
template <typename Candidate>
bool AssignCandidates(Node& n, std::vector<size_t>* columns,
                      std::vector<Candidate>* candidates) {
  if (n.op == Op::kColumn) {
    columns->push_back(n.index);
    return true;
  }
  std::vector<size_t> mine;
  bool local = n.op != Op::kLag && n.op != Op::kSlot &&
               n.op != Op::kEager && n.op != Op::kLifted;
  for (Node& k : n.kids) local = AssignCandidates(k, &mine, candidates) && local;
  std::sort(mine.begin(), mine.end());
  mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
  if (local && !mine.empty()) {
    n.memo = static_cast<int>(candidates->size());
    candidates->push_back(Candidate{&n, mine});
  }
  columns->insert(columns->end(), mine.begin(), mine.end());
  return local;
}

/// Activates the tables of the largest series-level candidates under
/// `n`; true when `n` itself is one.
template <typename Candidate>
bool PrepareTables(const Node& n, const ColumnBatch& in,
                   const std::vector<Candidate>& candidates,
                   std::vector<MemoTable>* tables) {
  if (n.memo >= 0) {
    const size_t i = static_cast<size_t>(n.memo);
    if ((*tables)[i].Prepare(candidates[i].columns, in)) return true;
  }
  for (const Node& k : n.kids) PrepareTables(k, in, candidates, tables);
  return false;
}

}  // namespace

BoundExpr::BoundExpr(const Expr& expr, const table::Schema& schema,
                     const FunctionRegistry* functions,
                     const std::unordered_map<const Expr*, size_t>* slots) {
  auto root =
      std::make_unique<Node>(Binder{schema, functions, slots}.Bind(expr));
  row_local_ = AssignCandidates(*root, &columns_, &candidates_);
  if (root->op == Op::kColumn) {
    // A bare column read is a candidate only as a whole program, where
    // its memo caches key bytes and dictionary emission reads it.
    root->memo = static_cast<int>(candidates_.size());
    candidates_.push_back(Candidate{root.get(), {root->index}});
  }
  std::sort(columns_.begin(), columns_.end());
  columns_.erase(std::unique(columns_.begin(), columns_.end()),
                 columns_.end());
  row_local_ = row_local_ && !columns_.empty();
  root_ = std::move(root);
}

Result<Value> BoundExpr::Eval(const ColumnBatch& in, size_t row,
                              const SlotReader* slots) const {
  Status error;
  Value scratch;
  const Value* v = EvalNode(
      *root_, Frame{&in, slots, nullptr, &error, nullptr}, row, &scratch);
  if (v == nullptr) return error;
  if (v == &scratch) return scratch;
  return *v;
}

bool SeriesLevel(const BoundExpr& expr, const ColumnBatch& in) {
  return expr.row_local() && internal::SharedCodes(expr.columns(), in);
}

SeriesMemo::SeriesMemo() = default;
SeriesMemo::SeriesMemo(const BoundExpr* expr)
    : expr_(expr),
      tables_(expr != nullptr ? expr->candidates_.size() : 0) {}
SeriesMemo::SeriesMemo(const SeriesMemo&) = default;
SeriesMemo::SeriesMemo(SeriesMemo&&) noexcept = default;
SeriesMemo& SeriesMemo::operator=(const SeriesMemo&) = default;
SeriesMemo& SeriesMemo::operator=(SeriesMemo&&) noexcept = default;
SeriesMemo::~SeriesMemo() = default;

bool SeriesMemo::Prepare(const ColumnBatch& in) {
  active_ = false;
  if (tables_.empty()) return false;
  for (MemoTable& t : tables_) t.active = false;
  active_ = PrepareTables(*expr_->root_, in, expr_->candidates_, &tables_);
  return active_;
}

const Value* SeriesMemo::Ref(const ColumnBatch& in, size_t row,
                             Value* scratch, Status* error,
                             const SlotReader* slots) {
  return EvalNode(*expr_->root_, Frame{&in, slots, nullptr, error, this},
                  row, scratch);
}

Result<Value> SeriesMemo::Eval(const ColumnBatch& in, size_t row,
                               const SlotReader* slots) {
  Status error;
  Value scratch;
  const Value* v = EvalNode(
      *expr_->root_, Frame{&in, slots, nullptr, &error, this}, row, &scratch);
  if (v == nullptr) return error;
  if (v == &scratch) return scratch;
  return *v;
}

Result<bool> SeriesMemo::Test(const ColumnBatch& in, size_t row) {
  Status error;
  Value scratch;
  const Value* v = Ref(in, row, &scratch, &error);
  if (v == nullptr) return error;
  return !v->is_null() && v->AsBool();
}

Result<bool> SeriesMemo::AppendKey(const ColumnBatch& in, size_t row,
                                   std::string* key) {
  Status error;
  Value scratch;
  if (!active_) {
    const Value* v = Ref(in, row, &scratch, &error);
    if (v == nullptr) return error;
    return sql::AppendKey(*v, key);
  }
  MemoTable& t = tables_[static_cast<size_t>(expr_->root_->memo)];
  const uint32_t c = t.codes[row];
  if (!(t.state[c] & MemoTable::kKeyed)) {
    const Value* v = Ref(in, row, &scratch, &error);
    if (v == nullptr) return error;
    if (t.keys.empty()) t.keys.resize(t.state.size());
    if (sql::AppendKey(*v, &t.keys[c])) t.state[c] |= MemoTable::kMatchable;
    t.state[c] |= MemoTable::kKeyed;
  }
  key->append(t.keys[c]);
  return (t.state[c] & MemoTable::kMatchable) != 0;
}

uint32_t SeriesMemo::code(size_t row) const {
  return tables_[static_cast<size_t>(expr_->root_->memo)].codes[row];
}

size_t SeriesMemo::num_codes() const {
  return active_ ? tables_[static_cast<size_t>(expr_->root_->memo)]
                       .state.size()
                 : 0;
}

const Value* SeriesMemo::entry(uint32_t c) const {
  const MemoTable& t = tables_[static_cast<size_t>(expr_->root_->memo)];
  return t.state[c] & MemoTable::kValue ? t.values[c] : nullptr;
}

std::vector<SeriesMemo> MakeMemos(const std::vector<BoundExpr>& exprs) {
  std::vector<SeriesMemo> memos;
  memos.reserve(exprs.size());
  for (const BoundExpr& e : exprs) memos.emplace_back(&e);
  return memos;
}

Result<Value> Evaluator::Eval(const Expr& expr, size_t row) const {
  if (row >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " is past the input's " +
                              std::to_string(num_rows()) + " rows");
  }
  // One evaluation: bind the bare program, without numbering the
  // candidate sub-programs a SeriesMemo would need.
  const Node root = Binder{*schema_, functions_, nullptr}.Bind(expr);
  const ColumnBatch rows =
      table_ != nullptr ? ColumnBatch::View(*table_, 0, table_->num_rows())
                        : ColumnBatch(schema_, 0);
  Status error;
  Value scratch;
  const Value* v =
      EvalNode(root, Frame{batch_ != nullptr ? batch_ : &rows, nullptr,
                           nullptr, &error, nullptr},
               row, &scratch);
  if (v == nullptr) return error;
  if (v == &scratch) return scratch;
  return *v;
}

}  // namespace explainit::sql
