#include "core/feature_family.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

namespace explainit::core {

int FeatureFamily::FindFeature(const std::string& feature_name) const {
  for (size_t i = 0; i < feature_names.size(); ++i) {
    if (feature_names[i] == feature_name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

constexpr size_t kNone = std::numeric_limits<size_t>::max();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Where a query result keeps the Figure 4 roles.
struct ColumnRoles {
  size_t ts;
  size_t name;  // kNone: every row belongs to the default family
};

/// One feature cell of a row: its key and its value.
using Cell = std::pair<const std::string*, const table::Value*>;

/// First column other than `skip` whose first non-null cell has `type`.
std::optional<size_t> FirstColumnOfType(const table::Table& t,
                                        table::DataType type, size_t skip) {
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (c == skip) continue;
    for (const table::Value& v : t.column(c)) {
      if (v.is_null()) continue;
      if (v.type() == type) return c;
      break;
    }
  }
  return std::nullopt;
}

Result<ColumnRoles> LocateColumns(const table::Table& t) {
  std::optional<size_t> ts = t.schema().FieldIndex("ts");
  if (!ts) ts = t.schema().FieldIndex("timestamp");
  if (!ts) ts = FirstColumnOfType(t, table::DataType::kTimestamp, kNone);
  if (!ts) {
    return Status::InvalidArgument(
        "query result has no timestamp column (expected 'ts'/'timestamp' or "
        "a TIMESTAMP-typed column)");
  }
  std::optional<size_t> name = t.schema().FieldIndex("name");
  if (!name || *name == *ts) {
    name = FirstColumnOfType(t, table::DataType::kString, *ts);
  }
  return ColumnRoles{*ts, name.value_or(kNone)};
}

/// Row r's family: its name cell as text, else `fallback`. `scratch`
/// holds the text of a non-string name.
const std::string& FamilyOf(const table::Table& t, const ColumnRoles& roles,
                            size_t r, const std::string& fallback,
                            std::string* scratch) {
  if (roles.name == kNone || t.At(r, roles.name).is_null()) return fallback;
  const table::Value& v = t.At(r, roles.name);
  if (const std::string* s = v.TryString()) return *s;
  return *scratch = v.AsString();
}

/// Row r's feature cells in column order: a MAP cell contributes its
/// entries, any other cell one entry keyed by its column name.
void RowCells(const table::Table& t, const ColumnRoles& roles, size_t r,
              std::vector<Cell>* cells) {
  cells->clear();
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (c == roles.ts || c == roles.name) continue;
    const table::Value& v = t.At(r, c);
    if (const table::ValueMap* m = v.AsMap()) {
      for (const auto& [key, mv] : *m) cells->emplace_back(&key, &mv);
    } else {
      cells->emplace_back(&t.schema().field(c).name, &v);
    }
  }
}

/// The grid policy: timestamps sorted and de-duplicated.
void SortUnique(std::vector<EpochSeconds>* ts) {
  std::sort(ts->begin(), ts->end());
  ts->erase(std::unique(ts->begin(), ts->end()), ts->end());
}

size_t GridRow(const std::vector<EpochSeconds>& grid, EpochSeconds ts) {
  return static_cast<size_t>(
      std::lower_bound(grid.begin(), grid.end(), ts) - grid.begin());
}

/// Fills each column's NaN holes by nearest observation and lays the
/// columns out as a rows x columns.size() matrix.
la::Matrix FilledMatrix(std::vector<std::vector<double>> columns,
                        size_t rows) {
  la::Matrix out(rows, columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    tsdb::InterpolateMissing(columns[c]);
    out.SetCol(c, columns[c]);
    columns[c] = {};
  }
  return out;
}

}  // namespace

Result<std::vector<FeatureFamily>> FamiliesFromTable(
    const table::Table& rows, const std::string& default_family) {
  EXPLAINIT_ASSIGN_OR_RETURN(const ColumnRoles roles, LocateColumns(rows));
  std::vector<EpochSeconds> grid;
  for (const table::Value& v : rows.column(roles.ts)) {
    if (!v.is_null()) grid.push_back(v.AsTimestamp());
  }
  SortUnique(&grid);

  struct Builder {
    FeatureFamily family;  // name and feature names so far
    std::unordered_map<std::string, size_t> feature_index;
    std::vector<std::vector<double>> columns;  // NaN = no cell yet
  };
  std::vector<Builder> builders;
  std::unordered_map<std::string, size_t> builder_of;
  std::vector<Cell> cells;
  std::string scratch;
  const auto by_key = [](const Cell& a, const Cell& b) {
    return *a.first < *b.first;
  };
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    const table::Value& ts = rows.At(r, roles.ts);
    if (ts.is_null()) continue;
    const size_t g = GridRow(grid, ts.AsTimestamp());
    const std::string& family =
        FamilyOf(rows, roles, r, default_family, &scratch);
    const auto [it, added] = builder_of.try_emplace(family, builders.size());
    if (added) builders.emplace_back().family.name = family;
    Builder& b = builders[it->second];
    // In key order, the last of equal keys winning (the sort is stable),
    // a row reads exactly as the ValueMap of its Figure 4 table row. Most
    // rows arrive in key order, so the allocating sort is usually skipped.
    RowCells(rows, roles, r, &cells);
    if (!std::is_sorted(cells.begin(), cells.end(), by_key)) {
      std::stable_sort(cells.begin(), cells.end(), by_key);
    }
    for (size_t i = 0; i < cells.size(); ++i) {
      const auto [key, value] = cells[i];
      if (i + 1 < cells.size() && *cells[i + 1].first == *key) continue;
      const auto [fit, fresh] =
          b.feature_index.try_emplace(*key, b.columns.size());
      if (fresh) {
        b.family.feature_names.push_back(*key);
        b.columns.emplace_back(grid.size(), kNaN);
      }
      if (!value->is_null()) b.columns[fit->second][g] = value->AsDouble();
    }
  }
  std::vector<FeatureFamily> out;
  out.reserve(builders.size());
  for (Builder& b : builders) {
    b.family.timestamps = grid;
    b.family.data = FilledMatrix(std::move(b.columns), grid.size());
    out.push_back(std::move(b.family));
  }
  return out;
}

Result<FeatureFamily> FamilyFromRows(table::Table rows,
                                     const std::string& default_family,
                                     const std::string& merged_name) {
  // The moved-into temporary frees the rows before the merge.
  EXPLAINIT_ASSIGN_OR_RETURN(
      const std::vector<FeatureFamily> families,
      FamiliesFromTable(table::Table(std::move(rows)), default_family));
  if (families.empty()) {
    return Status::InvalidArgument(default_family +
                                   " query produced no families");
  }
  return MergeFamilies(families, merged_name);
}

Result<table::Table> NormalizeToFeatureFamilyTable(
    const table::Table& query_result, const std::string& default_family) {
  EXPLAINIT_ASSIGN_OR_RETURN(const ColumnRoles roles,
                             LocateColumns(query_result));
  table::Table out(table::Schema({{"ts", table::DataType::kTimestamp},
                                  {"name", table::DataType::kString},
                                  {"v", table::DataType::kMap}}));
  std::vector<Cell> cells;
  std::string scratch;
  for (size_t r = 0; r < query_result.num_rows(); ++r) {
    const table::Value& ts = query_result.At(r, roles.ts);
    if (ts.is_null()) continue;
    RowCells(query_result, roles, r, &cells);
    table::ValueMap v;
    for (const auto& [key, value] : cells) v[*key] = *value;
    out.AppendRow({table::Value::Timestamp(ts.AsTimestamp()),
                   table::Value::String(FamilyOf(query_result, roles, r,
                                                 default_family, &scratch)),
                   table::Value::Map(std::move(v))});
  }
  return out;
}

FeatureFamily MergeFamilies(const std::vector<FeatureFamily>& families,
                            const std::string& name) {
  FeatureFamily out;
  out.name = name;
  if (families.empty()) return out;
  out.timestamps = families[0].timestamps;
  size_t total_features = 0;
  for (const FeatureFamily& f : families) total_features += f.num_features();
  out.data = la::Matrix(out.timestamps.size(), total_features);
  size_t col = 0;
  for (const FeatureFamily& f : families) {
    for (size_t c = 0; c < f.num_features(); ++c, ++col) {
      out.feature_names.push_back(f.name + "/" + f.feature_names[c]);
      for (size_t r = 0; r < out.timestamps.size() && r < f.num_timestamps();
           ++r) {
        out.data(r, col) = f.data(r, c);
      }
    }
  }
  return out;
}

Status AlignFamilies(std::vector<FeatureFamily>* families) {
  if (families == nullptr || families->empty()) return Status::OK();
  std::vector<EpochSeconds> grid;
  for (const FeatureFamily& f : *families) {
    grid.insert(grid.end(), f.timestamps.begin(), f.timestamps.end());
  }
  SortUnique(&grid);
  for (FeatureFamily& f : *families) {
    if (f.timestamps == grid) continue;
    std::vector<std::vector<double>> columns(
        f.num_features(), std::vector<double>(grid.size(), kNaN));
    for (size_t r = 0; r < f.timestamps.size(); ++r) {
      const size_t g = GridRow(grid, f.timestamps[r]);  // later row wins
      for (size_t c = 0; c < f.num_features(); ++c) {
        columns[c][g] = f.data(r, c);
      }
    }
    f.data = FilledMatrix(std::move(columns), grid.size());
    f.timestamps = grid;
  }
  return Status::OK();
}

table::Table FamilyToTable(const FeatureFamily& family) {
  table::Schema schema({{"ts", table::DataType::kTimestamp},
                        {"name", table::DataType::kString},
                        {"v", table::DataType::kMap}});
  table::Table out(schema);
  for (size_t r = 0; r < family.num_timestamps(); ++r) {
    table::ValueMap v;
    for (size_t c = 0; c < family.num_features(); ++c) {
      v[family.feature_names[c]] = table::Value::Double(family.data(r, c));
    }
    out.AppendRow({table::Value::Timestamp(family.timestamps[r]),
                   table::Value::String(family.name),
                   table::Value::Map(std::move(v))});
  }
  return out;
}

FeatureFamily SliceFamily(const FeatureFamily& family,
                          const TimeRange& range) {
  FeatureFamily out;
  out.name = family.name;
  out.feature_names = family.feature_names;
  std::vector<size_t> rows;
  for (size_t r = 0; r < family.num_timestamps(); ++r) {
    if (range.Contains(family.timestamps[r])) {
      rows.push_back(r);
      out.timestamps.push_back(family.timestamps[r]);
    }
  }
  out.data = la::Matrix(rows.size(), family.num_features());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::copy(family.data.Row(rows[i]),
              family.data.Row(rows[i]) + family.num_features(),
              out.data.Row(i));
  }
  return out;
}

}  // namespace explainit::core
