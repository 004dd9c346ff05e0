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

/// One feature cell of a row: its key, its value, and its column when
/// the column itself is the feature (kNone for a MAP column's entry).
struct Cell {
  const std::string* key;
  const table::Value* value;
  size_t column;
};

/// First column other than `skip` whose first non-null cell has `type`.
std::optional<size_t> FirstColumnOfType(const table::Table& t,
                                        table::DataType type, size_t skip) {
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (c == skip) continue;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      const table::Value& v = t.At(r, c);
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

/// The family a name cell names: its text, else `fallback` when it is
/// NULL (or there is no name column). `scratch` holds the text of a
/// non-string name.
const std::string& FamilyName(const table::Value* name,
                              const std::string& fallback,
                              std::string* scratch) {
  if (name == nullptr || name->is_null()) return fallback;
  if (const std::string* s = name->TryString()) return *s;
  return *scratch = name->AsString();
}

/// Row r's family (see FamilyName).
const std::string& FamilyOf(const table::Table& t, const ColumnRoles& roles,
                            size_t r, const std::string& fallback,
                            std::string* scratch) {
  return FamilyName(roles.name == kNone ? nullptr : &t.At(r, roles.name),
                    fallback, scratch);
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
      for (const auto& [key, mv] : *m) cells->push_back(Cell{&key, &mv, kNone});
    } else {
      cells->push_back(Cell{&t.schema().field(c).name, &v, c});
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
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    const table::Value& v = rows.At(r, roles.ts);
    if (!v.is_null()) grid.push_back(v.AsTimestamp());
  }
  SortUnique(&grid);

  struct Builder {
    FeatureFamily family;  // name and feature names so far
    std::unordered_map<std::string, size_t> feature_index;
    /// Per table column: the feature slot it fills (kNone: not yet seen).
    std::vector<size_t> column_slot;
    std::vector<std::vector<double>> columns;  // NaN = no cell yet
  };
  std::vector<Builder> builders;
  std::unordered_map<std::string, size_t> builder_of;
  // A dictionary-coded name column resolves each code to its builder on
  // the code's first row, by value (a dictionary may repeat a name).
  const table::Column* names =
      roles.name == kNone ? nullptr : &rows.column(roles.name);
  const bool coded = names != nullptr && names->is_dictionary();
  std::vector<size_t> builder_of_code(
      coded ? names->dictionary()->size() : 0, kNone);
  std::vector<Cell> cells;
  std::string scratch;
  const auto by_key = [](const Cell& a, const Cell& b) {
    return *a.key < *b.key;
  };
  const auto resolve = [&](const std::string& family) {
    const auto [it, added] = builder_of.try_emplace(family, builders.size());
    if (added) {
      Builder& b = builders.emplace_back();
      b.family.name = family;
      b.column_slot.assign(rows.num_columns(), kNone);
    }
    return it->second;
  };
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    const table::Value& ts = rows.At(r, roles.ts);
    if (ts.is_null()) continue;
    const size_t g = GridRow(grid, ts.AsTimestamp());
    size_t bi = kNone;
    if (coded) {
      size_t& slot = builder_of_code[names->codes()[r]];
      if (slot == kNone) {
        slot = resolve(FamilyName(&(*names)[r], default_family, &scratch));
      }
      bi = slot;
    } else {
      bi = resolve(FamilyOf(rows, roles, r, default_family, &scratch));
    }
    Builder& b = builders[bi];
    // In key order, the last of equal keys winning (the sort is stable),
    // a row reads exactly as the ValueMap of its Figure 4 table row. Most
    // rows arrive in key order, so the allocating sort is usually skipped.
    RowCells(rows, roles, r, &cells);
    if (!std::is_sorted(cells.begin(), cells.end(), by_key)) {
      std::stable_sort(cells.begin(), cells.end(), by_key);
    }
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      if (i + 1 < cells.size() && *cells[i + 1].key == *cell.key) continue;
      // A non-MAP column resolves to its slot once per builder.
      size_t* cached =
          cell.column != kNone ? &b.column_slot[cell.column] : nullptr;
      size_t slot = cached != nullptr ? *cached : kNone;
      if (slot == kNone) {
        const auto [fit, fresh] =
            b.feature_index.try_emplace(*cell.key, b.columns.size());
        if (fresh) {
          b.family.feature_names.push_back(*cell.key);
          b.columns.emplace_back(grid.size(), kNaN);
        }
        slot = fit->second;
        if (cached != nullptr) *cached = slot;
      }
      if (!cell.value->is_null()) b.columns[slot][g] = cell.value->AsDouble();
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
  // A dictionary-coded name column stays coded: one family name per
  // dictionary entry, over the kept rows' codes.
  const table::Column* names =
      roles.name == kNone ? nullptr : &query_result.column(roles.name);
  const bool coded = names != nullptr && names->is_dictionary();
  std::string scratch;
  auto family_names = std::make_shared<table::Dictionary>();
  if (coded) {
    for (const table::Value& name : *names->dictionary()) {
      family_names->push_back(table::Value::String(
          FamilyName(&name, default_family, &scratch)));
    }
  }
  std::vector<table::Value> ts_cells;
  std::vector<table::Value> name_cells;
  auto codes = std::make_shared<table::CodeArray>();
  std::vector<table::Value> v_cells;
  std::vector<Cell> cells;
  for (size_t r = 0; r < query_result.num_rows(); ++r) {
    const table::Value& ts = query_result.At(r, roles.ts);
    if (ts.is_null()) continue;
    RowCells(query_result, roles, r, &cells);
    table::ValueMap v;
    for (const Cell& cell : cells) v[*cell.key] = *cell.value;
    ts_cells.push_back(table::Value::Timestamp(ts.AsTimestamp()));
    if (coded) {
      codes->push_back(names->codes()[r]);
    } else {
      name_cells.push_back(table::Value::String(
          FamilyOf(query_result, roles, r, default_family, &scratch)));
    }
    v_cells.push_back(table::Value::Map(std::move(v)));
  }
  const size_t rows = ts_cells.size();
  std::vector<table::Column> cols;
  cols.emplace_back(std::move(ts_cells));
  if (coded) {
    cols.emplace_back(std::move(family_names), std::move(codes), 0, rows);
  } else {
    cols.emplace_back(std::move(name_cells));
  }
  cols.emplace_back(std::move(v_cells));
  return table::Table::FromColumns(
      table::Schema({{"ts", table::DataType::kTimestamp},
                     {"name", table::DataType::kString},
                     {"v", table::DataType::kMap}}),
      std::move(cols));
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
