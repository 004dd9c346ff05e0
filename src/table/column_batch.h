// ColumnBatch: the fixed-size unit of exchange between physical SQL
// operators. A batch is a columnar *view*: each column is a ColumnView
// (a Column and the batch's first row in it) over a Column that is
// either borrowed (zero-copy slices of a backing Table, star
// pass-through in projections) or owned by the batch (filter
// compaction, computed projections, join/aggregate outputs). Views keep
// a column's representation: a dictionary column's slice reads its
// codes in place, and columns that shared a code array still share it.
//
// Lifetime contract: a borrowed column (and the borrowed schema pointer)
// must outlive the batch. In the operator pipeline the producing operator
// keeps its backing storage alive until the consumer has processed the
// batch, so a batch is valid until the next Next() call on its producer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "table/table.h"

namespace explainit::table {

/// A lightweight columnar view over a run of rows. Move-only: owned
/// columns live behind stable heap addresses that views point at.
class ColumnBatch {
 public:
  ColumnBatch() = default;
  /// An empty batch with `num_rows` rows and no columns yet (columns are
  /// attached with AddBorrowedColumn / AddOwnedColumn). `num_rows` may be
  /// non-zero with zero columns: SELECT without FROM has one such row.
  ColumnBatch(const Schema* schema, size_t num_rows)
      : schema_(schema), num_rows_(num_rows) {}

  ColumnBatch(ColumnBatch&&) = default;
  ColumnBatch& operator=(ColumnBatch&&) = default;
  ColumnBatch(const ColumnBatch&) = delete;
  ColumnBatch& operator=(const ColumnBatch&) = delete;

  /// Zero-copy view over rows [row_begin, row_begin + rows) of `t`.
  /// `schema_override` substitutes a different schema of equal width
  /// (column qualification in joins renames without copying).
  static ColumnBatch View(const Table& t, size_t row_begin, size_t rows,
                          const Schema* schema_override = nullptr);

  const Schema& schema() const { return *schema_; }
  void set_schema(const Schema* schema) { schema_ = schema; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return cols_.size(); }

  const Value& At(size_t row, size_t col) const { return cols_[col][row]; }
  /// One column, indexed from the batch's first row.
  const ColumnView& column(size_t col) const { return cols_[col]; }
  const std::vector<ColumnView>& columns() const { return cols_; }

  /// Attaches a view of external storage (caller keeps it alive; must
  /// hold at least num_rows() rows from the view's offset).
  void AddBorrowedColumn(const ColumnView& view) { cols_.push_back(view); }

  /// Attaches a column owned by this batch (size must equal num_rows()).
  void AddOwnedColumn(Column data);
  void AddOwnedColumn(std::vector<Value> data) {
    AddOwnedColumn(Column(std::move(data)));
  }

  /// New batch (same schema) holding only the rows at `indices`, in
  /// owned columns that keep each column's representation (see
  /// GatherColumns). The filter compaction step.
  ColumnBatch Gather(const std::vector<uint32_t>& indices) const;

  /// Keeps rows [0, n). Borrowed/owned storage is untouched; only the
  /// visible row count shrinks (LIMIT).
  void Truncate(size_t n);

  /// Bulk-appends every row of this batch to `out` (schema widths must
  /// match; column-wise, see Table::AppendColumns).
  void AppendTo(Table* out) const;

 private:
  const Schema* schema_ = nullptr;
  std::vector<ColumnView> cols_;
  std::vector<std::unique_ptr<Column>> owned_;  // backing for owned views
  size_t num_rows_ = 0;
};

/// Concatenates `batches` (all of `schema`'s width) into one column per
/// field. A column stays dictionary-coded when every batch's column uses one
/// dictionary object, and columns that share a code array in every
/// batch share one in the result. Rows copy in per-batch tasks that
/// `for_each(n, fn)` runs as fn(0) ... fn(n - 1), possibly concurrently
/// (tasks write disjoint row ranges).
std::vector<Column> ConcatBatches(const Schema& schema,
                                  const std::vector<ColumnBatch>& batches,
                                  const ForEachTask& for_each);

/// Default number of rows exchanged per batch.
inline constexpr size_t kDefaultBatchRows = 1024;

}  // namespace explainit::table
