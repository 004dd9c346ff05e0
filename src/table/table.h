// Columnar in-memory tables: the exchange format between the tsdb scan
// layer, the SQL executor, and the feature-family builder (Figure 4's
// Feature Family / Hypothesis / Score tables).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "table/value.h"

namespace explainit::table {

/// A named, typed column in a schema.
struct Field {
  std::string name;
  DataType type = DataType::kNull;

  bool operator==(const Field& other) const = default;
};

/// An ordered list of fields.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) {
    for (Field& f : fields) AddField(std::move(f));
  }

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the field with the given name (case-insensitive, SQL style);
  /// nullopt when absent. O(1): a lowercase name -> index map is kept in
  /// step with fields_, so lookups are pure reads (safe for concurrent
  /// const access, unlike a lazily built cache).
  std::optional<size_t> FieldIndex(std::string_view name) const;

  void AddField(Field f);

  std::string ToString() const;
  bool operator==(const Schema& other) const {
    return fields_ == other.fields_;
  }

 private:
  std::vector<Field> fields_;
  /// Lookup index maintained by AddField. Duplicate lowercase names keep
  /// the first index, matching the original linear first-match scan.
  std::unordered_map<std::string, size_t> index_;
};

/// Dictionary entries shared by dictionary columns.
using Dictionary = std::vector<Value>;
/// Row codes into a Dictionary, shared by the columns that code their rows
/// alike (a scan's metric_name and tag both use the series index).
using CodeArray = std::vector<uint32_t>;

/// One column's cells, in one of two representations:
///
///  * boxed — one Value per row;
///  * dictionary — a Dictionary plus one code per row, the row's cell
///    being dict[code]. Both are held by shared_ptr, so columns (and
///    tables copied from one another) share them; a column reads the
///    code array from `offset` for size() rows, so a view of a prefix
///    or a contiguous run is zero-copy. Code arrays are immutable while
///    shared: a table extends one in place only when its own columns are
///    its only holders.
///
/// operator[] returns `const Value&` in both, so readers never branch on
/// the representation; writers (Table's append paths) keep a dictionary
/// when the appended cells use the same dictionary object and otherwise
/// box the column.
class Column {
 public:
  Column() = default;
  explicit Column(std::vector<Value> cells) : cells_(std::move(cells)) {}
  /// A dictionary column over codes[offset, offset + size).
  Column(std::shared_ptr<const Dictionary> dict,
         std::shared_ptr<const CodeArray> codes, size_t offset, size_t size);

  size_t size() const { return codes_ != nullptr ? size_ : cells_.size(); }
  bool is_dictionary() const { return codes_ != nullptr; }

  const Value& operator[](size_t row) const {
    return codes_ != nullptr ? (*dict_)[(*codes_)[offset_ + row]]
                             : cells_[row];
  }

  /// Boxed storage (empty for a dictionary column).
  const std::vector<Value>& cells() const { return cells_; }
  /// Dictionary storage (null for a boxed column). codes() points at this
  /// column's first row code.
  const std::shared_ptr<const Dictionary>& dictionary() const {
    return dict_;
  }
  const std::shared_ptr<const CodeArray>& code_array() const {
    return codes_;
  }
  size_t code_offset() const { return offset_; }
  const uint32_t* codes() const { return codes_->data() + offset_; }

  /// Converts a dictionary column to boxed cells (no-op when boxed).
  void Box();
  /// Appends one boxed cell (boxing a dictionary column first).
  void Push(Value v);
  /// Keeps rows [0, n).
  void Truncate(size_t n);

 private:
  friend class Table;
  std::vector<Value> cells_;
  std::shared_ptr<const Dictionary> dict_;
  std::shared_ptr<const CodeArray> codes_;
  size_t offset_ = 0;
  size_t size_ = 0;
};

/// A read-only window of a Column starting at row `offset`: the
/// ColumnBatch column representation. It caches raw pointers so reading
/// a cell costs one branch; the viewed column must outlive the view and
/// must not grow while viewed.
class ColumnView {
 public:
  ColumnView() = default;
  ColumnView(const Column& column, size_t offset);

  const Value& operator[](size_t row) const {
    return codes_ != nullptr ? dict_[codes_[row]] : cells_[row];
  }
  bool is_dictionary() const { return codes_ != nullptr; }
  /// Code of `row` (dictionary views only).
  uint32_t code(size_t row) const { return codes_[row]; }
  /// The first viewed row's code: views whose codes() are equal code
  /// every row alike.
  const uint32_t* codes() const { return codes_; }
  const Column& column() const { return *column_; }
  size_t offset() const { return offset_; }
  /// The viewed column's dictionary (null when boxed).
  const std::shared_ptr<const Dictionary>& dictionary() const {
    return column_->dictionary();
  }
  /// Position of the first viewed row in column().code_array().
  size_t code_offset() const { return column_->code_offset() + offset_; }

 private:
  const Column* column_ = nullptr;
  size_t offset_ = 0;
  const Value* cells_ = nullptr;
  const Value* dict_ = nullptr;
  const uint32_t* codes_ = nullptr;
};

/// A column-major table of Values.
///
/// Cells are dynamically typed; the declared column type is advisory (the
/// SQL layer uses it for planning) and kNull-typed columns accept anything.
/// Each column is boxed or dictionary-coded (see Column); At() reads
/// either through one accessor.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema)
      : schema_(std::move(schema)), columns_(schema_.num_fields()) {}

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Appends one row; the value count must match the schema width
  /// (dictionary columns are boxed first).
  void AppendRow(std::vector<Value> row);

  /// Bulk-appends `n` rows of column views, one per column (the
  /// vectorised pipeline's materialisation path). A dictionary view
  /// appended to an empty column or to a column with the same
  /// dictionary object stays coded; columns that share a code array here
  /// and in `cols` keep sharing one. Anything else boxes the column.
  void AppendColumns(const std::vector<ColumnView>& cols, size_t n);

  /// Builds a table by *moving* fully formed columns in (no cell copies).
  /// Column count must match the schema width and all columns must share
  /// one length.
  static Result<Table> FromColumns(Schema schema, std::vector<Column> columns);

  const Value& At(size_t row, size_t col) const {
    return columns_[col][row];
  }
  const Column& column(size_t col) const { return columns_[col]; }

  /// Full row as a vector (copies cells; cells are cheap to copy).
  std::vector<Value> Row(size_t row) const;

  /// Returns a table with only the named columns, in the given order.
  Result<Table> SelectColumns(const std::vector<std::string>& names) const;

  /// Stable sort of rows by a column (ascending or descending).
  Result<Table> SortBy(const std::string& column_name,
                       bool ascending = true) const;

  /// Appends all rows of `other` (schemas must be the same width; field
  /// names of `this` win — SQL UNION ALL semantics). Dictionaries are
  /// kept as AppendColumns keeps them.
  Status UnionAll(const Table& other);

  /// Keeps rows [0, n).
  void Truncate(size_t n);

  /// Renders up to max_rows as an aligned text table.
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

/// Runs fn(0) ... fn(n - 1), possibly concurrently: the table layer's
/// hook for a caller's worker pool (tasks write disjoint rows).
using ForEachTask =
    std::function<void(size_t n, const std::function<void(size_t)>& fn)>;

/// Gathers rows `indices[0..n)` of each view into new columns. A code
/// array is gathered once per distinct code array, so views that shared
/// codes share the gathered codes; dictionaries are shared as they are.
/// With `for_each`, row chunks gather as its tasks.
std::vector<Column> GatherColumns(const std::vector<ColumnView>& cols,
                                  const uint32_t* indices, size_t n,
                                  const ForEachTask& for_each = nullptr);

}  // namespace explainit::table
