// Feature families (§3.2): groups of univariate metrics organised into
// human-relatable units — "grouping is a critical operation that precedes
// hypothesis generation".
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_util.h"
#include "la/matrix.h"
#include "table/table.h"
#include "tsdb/store.h"

namespace explainit::core {

/// A named group of univariate metrics sampled on a shared time grid.
/// The data matrix is (T timestamps) x (F features) — the paper's dense
/// array representation (§4.2).
struct FeatureFamily {
  std::string name;
  std::vector<std::string> feature_names;  // size F
  std::vector<EpochSeconds> timestamps;    // size T
  la::Matrix data;                         // T x F

  size_t num_features() const { return data.cols(); }
  size_t num_timestamps() const { return data.rows(); }

  /// Column index of a feature name; -1 when absent.
  int FindFeature(const std::string& feature_name) const;

  bool operator==(const FeatureFamily& other) const = default;
};

/// The sub-select -> family builder (Figure 4, Appendix C) behind the
/// EXPLAIN Rank operator and Session's *ByQuery setters. Column roles:
/// ts is `ts`, else `timestamp`, else the first TIMESTAMP-valued column
/// (null-ts rows are skipped); the family is `name`, else the first other
/// string-valued column, else (or when null) `default_family`. Every
/// other column is a feature named after its column; a MAP cell gives its
/// keys instead, and a later column wins a repeated key. Families and
/// features keep first-seen order, all span the table's sorted distinct
/// timestamps (the later row wins a repeated one), and missing cells take
/// the nearest observation. A dictionary-coded name column (a scan's
/// series-coded metric_name, or a series-level CONCAT) resolves each
/// code to its family on the code's first row, by value.
Result<std::vector<FeatureFamily>> FamiliesFromTable(
    const table::Table& rows, const std::string& default_family = "family");

/// FamiliesFromTable merged into the single family `merged_name` (a
/// target Y or condition Z). The rows are freed before the merge.
/// InvalidArgument when the rows yield no families.
Result<FeatureFamily> FamilyFromRows(table::Table rows,
                                     const std::string& default_family,
                                     const std::string& merged_name);

/// Renders a query result as the Figure 4 table (ts, name, v MAP) under
/// FamiliesFromTable's rules, which build the same families from either.
/// A dictionary-coded name column comes out dictionary-coded.
Result<table::Table> NormalizeToFeatureFamilyTable(
    const table::Table& query_result,
    const std::string& default_family = "family");

/// Merges families into one (features renamed "family/feature").
FeatureFamily MergeFamilies(const std::vector<FeatureFamily>& families,
                            const std::string& name);

/// Reindexes every family onto the union of their time grids (the later
/// row wins a repeated timestamp), filling holes by nearest observation.
/// Makes families from different sources rankable together.
Status AlignFamilies(std::vector<FeatureFamily>* families);

/// Renders a family back to the Figure 4 schema (one row per timestamp).
table::Table FamilyToTable(const FeatureFamily& family);

/// Returns a family restricted to rows whose timestamp lies in `range`.
FeatureFamily SliceFamily(const FeatureFamily& family, const TimeRange& range);

}  // namespace explainit::core
