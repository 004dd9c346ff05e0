#include "sql/functions.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "common/time_util.h"

namespace explainit::sql {

using table::Value;
using table::ValueMap;

int64_t DateTruncStepSeconds(const std::string& unit) {
  const std::string u = ToLower(unit);
  if (u == "second") return 1;
  if (u == "minute") return kSecondsPerMinute;
  if (u == "hour") return kSecondsPerMinute * kMinutesPerHour;
  if (u == "day") return kSecondsPerMinute * kMinutesPerHour * 24;
  return 0;
}

void FunctionRegistry::Register(const std::string& name, ScalarFn fn) {
  fns_[ToUpper(name)] = std::move(fn);
}

const ScalarFn* FunctionRegistry::Find(const std::string& name) const {
  auto it = fns_.find(ToUpper(name));
  return it == fns_.end() ? nullptr : &it->second;
}

std::vector<std::string> FunctionRegistry::ListFunctions() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : fns_) out.push_back(k);
  return out;
}

namespace {

Status Arity(const std::vector<Value>& args, size_t n, const char* name) {
  if (args.size() != n) {
    return Status::InvalidArgument(std::string(name) + " expects " +
                                   std::to_string(n) + " arguments, got " +
                                   std::to_string(args.size()));
  }
  return Status::OK();
}

Result<Value> Concat(const std::vector<Value>& args) {
  std::string out;
  for (const Value& v : args) {
    if (!v.is_null()) out += v.AsString();
  }
  return Value::String(std::move(out));
}

Result<Value> Split(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 2, "SPLIT"));
  const std::string s = args[0].AsString();
  const std::string sep = args[1].AsString();
  if (sep.size() != 1) {
    return Status::InvalidArgument("SPLIT expects a single-char separator");
  }
  // Returns a map keyed "0", "1", ... so SPLIT(x, '-')[0] works with the
  // generic subscript operator.
  ValueMap out;
  auto parts = StrSplit(s, sep[0]);
  for (size_t i = 0; i < parts.size(); ++i) {
    out[std::to_string(i)] = Value::String(parts[i]);
  }
  return Value::Map(std::move(out));
}

Result<Value> Lower(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 1, "LOWER"));
  return Value::String(ToLower(args[0].AsString()));
}

Result<Value> Upper(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 1, "UPPER"));
  return Value::String(ToUpper(args[0].AsString()));
}

Result<Value> Length(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 1, "LENGTH"));
  return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
}

Result<Value> Abs(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 1, "ABS"));
  return Value::Double(std::abs(args[0].AsDouble()));
}

Result<Value> Sqrt(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 1, "SQRT"));
  return Value::Double(std::sqrt(args[0].AsDouble()));
}

Result<Value> Log(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 1, "LOG"));
  return Value::Double(std::log(args[0].AsDouble()));
}

Result<Value> Exp(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 1, "EXP"));
  return Value::Double(std::exp(args[0].AsDouble()));
}

Result<Value> Pow(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 2, "POW"));
  return Value::Double(std::pow(args[0].AsDouble(), args[1].AsDouble()));
}

Result<Value> Round(const std::vector<Value>& args) {
  if (args.size() == 1) {
    return Value::Double(std::round(args[0].AsDouble()));
  }
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 2, "ROUND"));
  const double scale = std::pow(10.0, args[1].AsDouble());
  return Value::Double(std::round(args[0].AsDouble() * scale) / scale);
}

Result<Value> Floor(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 1, "FLOOR"));
  return Value::Double(std::floor(args[0].AsDouble()));
}

Result<Value> Ceil(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 1, "CEIL"));
  return Value::Double(std::ceil(args[0].AsDouble()));
}

Result<Value> Greatest(const std::vector<Value>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("GREATEST expects at least 1 argument");
  }
  double best = args[0].AsDouble();
  for (const Value& v : args) best = std::max(best, v.AsDouble());
  return Value::Double(best);
}

Result<Value> Least(const std::vector<Value>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("LEAST expects at least 1 argument");
  }
  double best = args[0].AsDouble();
  for (const Value& v : args) best = std::min(best, v.AsDouble());
  return Value::Double(best);
}

Result<Value> Coalesce(const std::vector<Value>& args) {
  for (const Value& v : args) {
    if (!v.is_null()) return v;
  }
  return Value::Null();
}

// MAP(k1, v1, k2, v2, ...), as Spark SQL's map(): each key's text maps to
// its value, a repeated key keeping the later value. Lets one row of a
// search-space sub-select carry a feature whose name depends on the row.
Result<Value> Map(const std::vector<Value>& args) {
  if (args.size() % 2 != 0) {
    return Status::InvalidArgument(
        "MAP expects key/value pairs, got " + std::to_string(args.size()) +
        " arguments");
  }
  ValueMap out;
  for (size_t i = 0; i < args.size(); i += 2) {
    out[args[i].AsString()] = args[i + 1];
  }
  return Value::Map(std::move(out));
}

Result<Value> If(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 3, "IF"));
  return args[0].AsBool() ? args[1] : args[2];
}

Result<Value> NullIf(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 2, "NULLIF"));
  if (args[0].Equals(args[1])) return Value::Null();
  return args[0];
}

// DATE_TRUNC('minute'|'hour'|'day', ts): floors a timestamp to the unit
// boundary — the canonical grid expression the planner recognises when
// deriving a rollup resolution hint for the store.
Result<Value> DateTrunc(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 2, "DATE_TRUNC"));
  if (args[1].is_null()) return Value::Null();
  const int64_t step = DateTruncStepSeconds(args[0].AsString());
  if (step <= 0) {
    return Status::InvalidArgument("DATE_TRUNC: unsupported unit '" +
                                   args[0].AsString() + "'");
  }
  const EpochSeconds t = args[1].AsTimestamp();
  return Value::Timestamp(t - ((t % step) + step) % step);
}

// HOSTGROUP('web-13') = 'web'. The UDF the paper suggests instead of
// SPLIT(hostname, '-')[0].
Result<Value> HostGroup(const std::vector<Value>& args) {
  EXPLAINIT_RETURN_IF_ERROR(Arity(args, 1, "HOSTGROUP"));
  const std::string h = args[0].AsString();
  return Value::String(StrSplit(h, '-')[0]);
}

}  // namespace

FunctionRegistry FunctionRegistry::Builtins() {
  FunctionRegistry r;
  r.Register("CONCAT", Concat);
  r.Register("SPLIT", Split);
  r.Register("LOWER", Lower);
  r.Register("UPPER", Upper);
  r.Register("LENGTH", Length);
  r.Register("ABS", Abs);
  r.Register("SQRT", Sqrt);
  r.Register("LOG", Log);
  r.Register("EXP", Exp);
  r.Register("POW", Pow);
  r.Register("ROUND", Round);
  r.Register("FLOOR", Floor);
  r.Register("CEIL", Ceil);
  r.Register("GREATEST", Greatest);
  r.Register("LEAST", Least);
  r.Register("COALESCE", Coalesce);
  r.Register("MAP", Map);
  r.Register("IF", If);
  r.Register("NULLIF", NullIf);
  r.Register("DATE_TRUNC", DateTrunc);
  r.Register("HOSTGROUP", HostGroup);
  return r;
}

}  // namespace explainit::sql
