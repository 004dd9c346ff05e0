#include "table/table.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/strings.h"

namespace explainit::table {

void Schema::AddField(Field f) {
  index_.try_emplace(ToLower(f.name), fields_.size());
  fields_.push_back(std::move(f));
}

std::optional<size_t> Schema::FieldIndex(std::string_view name) const {
  const auto it = index_.find(ToLower(std::string(name)));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += ": ";
    out += DataTypeName(fields_[i].type);
  }
  out += ")";
  return out;
}

Column::Column(std::shared_ptr<const Dictionary> dict,
               std::shared_ptr<const CodeArray> codes, size_t offset,
               size_t size)
    : dict_(std::move(dict)),
      codes_(std::move(codes)),
      offset_(offset),
      size_(size) {
  EXPLAINIT_CHECK(dict_ != nullptr && codes_ != nullptr &&
                      offset_ + size_ <= codes_->size(),
                  "dictionary column window [" << offset_ << ", "
                                               << offset_ + size_
                                               << ") exceeds its codes");
}

void Column::Box() {
  if (codes_ == nullptr) return;
  std::vector<Value> cells;
  cells.reserve(size_);
  for (size_t r = 0; r < size_; ++r) cells.push_back((*this)[r]);
  *this = Column(std::move(cells));
}

void Column::Push(Value v) {
  Box();
  cells_.push_back(std::move(v));
}

void Column::Truncate(size_t n) {
  if (n >= size()) return;
  if (codes_ != nullptr) {
    size_ = n;
  } else {
    cells_.resize(n);
  }
}

ColumnView::ColumnView(const Column& column, size_t offset)
    : column_(&column), offset_(offset) {
  if (column.is_dictionary()) {
    dict_ = column.dictionary()->data();
    codes_ = column.codes() + offset;
  } else {
    cells_ = column.cells().data() + offset;
  }
}

void Table::AppendRow(std::vector<Value> row) {
  EXPLAINIT_CHECK(row.size() == columns_.size(),
                  "row width " << row.size() << " != schema width "
                               << columns_.size());
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].Push(std::move(row[c]));
  }
  ++num_rows_;
}

void Table::AppendColumns(const std::vector<ColumnView>& cols, size_t n) {
  EXPLAINIT_CHECK(cols.size() == columns_.size(),
                  "batch width " << cols.size() << " != schema width "
                                 << columns_.size());
  std::vector<char> done(cols.size(), 0);
  for (size_t c = 0; c < cols.size(); ++c) {
    if (done[c]) continue;
    Column& dst = columns_[c];
    const ColumnView& src = cols[c];
    const bool adopt = num_rows_ == 0;
    if (!src.is_dictionary() ||
        (!adopt && dst.dictionary() != src.dictionary())) {
      dst.Box();
      // Geometric growth: a drain appends batch after batch.
      const size_t need = dst.cells_.size() + n;
      if (dst.cells_.capacity() < need) {
        dst.cells_.reserve(std::max(need, 2 * dst.cells_.capacity()));
      }
      for (size_t r = 0; r < n; ++r) dst.cells_.push_back(src[r]);
      continue;
    }
    // The columns coded alike here and in `cols` take one code append.
    std::vector<size_t> group{c};
    for (size_t o = c + 1; o < cols.size(); ++o) {
      const Column& other = columns_[o];
      if (done[o] || cols[o].codes() != src.codes()) continue;
      if (!adopt && (other.dictionary() != cols[o].dictionary() ||
                     other.code_array() != dst.code_array() ||
                     other.code_offset() != dst.code_offset())) {
        continue;
      }
      group.push_back(o);
    }
    std::shared_ptr<const CodeArray> codes;
    size_t offset = 0;
    const size_t size = dst.size() + n;
    const std::shared_ptr<const CodeArray>& src_codes =
        src.column().code_array();
    if (adopt) {
      codes = src_codes;
      offset = src.code_offset();
    } else if (dst.code_array() == src_codes &&
               dst.code_offset() + dst.size() == src.code_offset()) {
      // A contiguous continuation (a drain of one table's views).
      codes = dst.code_array();
      offset = dst.code_offset();
    } else if (dst.code_array().use_count() ==
                   static_cast<long>(group.size()) &&
               dst.code_offset() + dst.size() == dst.code_array()->size()) {
      // Only this table's group holds the array, which it made itself
      // (below), so it may grow in place.
      auto& own = const_cast<CodeArray&>(*dst.code_array());
      own.insert(own.end(), src.codes(), src.codes() + n);
      codes = dst.code_array();
      offset = dst.code_offset();
    } else {
      auto fresh = std::make_shared<CodeArray>();
      fresh->reserve(std::max(2 * size, size_t{64}));
      fresh->insert(fresh->end(), dst.codes(), dst.codes() + dst.size());
      fresh->insert(fresh->end(), src.codes(), src.codes() + n);
      codes = std::move(fresh);
    }
    for (const size_t g : group) {
      columns_[g] = Column(cols[g].dictionary(), codes, offset, size);
      done[g] = 1;
    }
  }
  num_rows_ += n;
}

Result<Table> Table::FromColumns(Schema schema, std::vector<Column> columns) {
  if (columns.size() != schema.num_fields()) {
    return Status::InvalidArgument(
        "column count " + std::to_string(columns.size()) +
        " != schema width " + std::to_string(schema.num_fields()));
  }
  const size_t rows = columns.empty() ? 0 : columns[0].size();
  for (const auto& col : columns) {
    if (col.size() != rows) {
      return Status::InvalidArgument("FromColumns requires equal lengths");
    }
  }
  Table out(std::move(schema));
  out.columns_ = std::move(columns);
  out.num_rows_ = rows;
  return out;
}

std::vector<Value> Table::Row(size_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const Column& col : columns_) out.push_back(col[row]);
  return out;
}

Result<Table> Table::SelectColumns(
    const std::vector<std::string>& names) const {
  Schema out_schema;
  std::vector<size_t> indices;
  for (const std::string& name : names) {
    auto idx = schema_.FieldIndex(name);
    if (!idx.has_value()) {
      return Status::NotFound("column not found: " + name);
    }
    indices.push_back(*idx);
    out_schema.AddField(schema_.field(*idx));
  }
  Table out(out_schema);
  for (size_t i = 0; i < indices.size(); ++i) {
    out.columns_[i] = columns_[indices[i]];
  }
  out.num_rows_ = num_rows_;
  return out;
}

Result<Table> Table::SortBy(const std::string& column_name,
                            bool ascending) const {
  auto idx = schema_.FieldIndex(column_name);
  if (!idx.has_value()) {
    return Status::NotFound("sort column not found: " + column_name);
  }
  std::vector<uint32_t> order(num_rows_);
  std::iota(order.begin(), order.end(), uint32_t{0});
  const Column& key = columns_[*idx];
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const int cmp = key[a].Compare(key[b]);
    return ascending ? cmp < 0 : cmp > 0;
  });
  std::vector<ColumnView> views;
  for (const Column& col : columns_) views.emplace_back(col, 0);
  return FromColumns(schema_, GatherColumns(views, order.data(), num_rows_));
}

Status Table::UnionAll(const Table& other) {
  if (other.num_columns() != num_columns()) {
    return Status::InvalidArgument(
        "UNION ALL requires equal column counts: " +
        std::to_string(num_columns()) + " vs " +
        std::to_string(other.num_columns()));
  }
  std::vector<ColumnView> views;
  for (const Column& col : other.columns_) views.emplace_back(col, 0);
  AppendColumns(views, other.num_rows_);
  return Status::OK();
}

void Table::Truncate(size_t n) {
  if (n >= num_rows_) return;
  for (Column& col : columns_) col.Truncate(n);
  num_rows_ = n;
}

std::string Table::ToString(size_t max_rows) const {
  const size_t show = std::min(num_rows_, max_rows);
  // Compute column widths.
  std::vector<size_t> widths(columns_.size());
  std::vector<std::vector<std::string>> cells(show);
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = schema_.field(c).name.size();
  }
  for (size_t r = 0; r < show; ++r) {
    cells[r].resize(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      cells[r][c] = At(r, c).ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  std::string out;
  for (size_t c = 0; c < columns_.size(); ++c) {
    out += StrFormat("%-*s  ", static_cast<int>(widths[c]),
                     schema_.field(c).name.c_str());
  }
  out += "\n";
  for (size_t r = 0; r < show; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      out += StrFormat("%-*s  ", static_cast<int>(widths[c]),
                       cells[r][c].c_str());
    }
    out += "\n";
  }
  if (show < num_rows_) {
    out += StrFormat("... (%zu more rows)\n", num_rows_ - show);
  }
  return out;
}

std::vector<Column> GatherColumns(const std::vector<ColumnView>& cols,
                                  const uint32_t* indices, size_t n,
                                  const ForEachTask& for_each) {
  // code_owner[c]: the first column whose codes column c shares.
  std::vector<size_t> code_owner(cols.size());
  std::vector<std::vector<Value>> cells(cols.size());
  std::vector<std::shared_ptr<CodeArray>> codes(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    code_owner[c] = c;
    if (!cols[c].is_dictionary()) continue;
    for (size_t o = 0; o < c; ++o) {
      if (cols[o].is_dictionary() && cols[o].codes() == cols[c].codes()) {
        code_owner[c] = code_owner[o];
        break;
      }
    }
    if (code_owner[c] == c) codes[c] = std::make_shared<CodeArray>(n);
  }
  if (!for_each) {
    for (size_t c = 0; c < cols.size(); ++c) {
      const ColumnView& src = cols[c];
      if (!src.is_dictionary()) {
        cells[c].reserve(n);
        for (size_t i = 0; i < n; ++i) cells[c].push_back(src[indices[i]]);
      } else if (code_owner[c] == c) {
        for (size_t i = 0; i < n; ++i) (*codes[c])[i] = src.code(indices[i]);
      }
    }
  } else {
    // Row chunks gather as tasks writing disjoint rows.
    constexpr size_t kChunkRows = 8192;
    for (size_t c = 0; c < cols.size(); ++c) {
      if (!cols[c].is_dictionary()) cells[c].resize(n);
    }
    for_each((n + kChunkRows - 1) / kChunkRows, [&](size_t chunk) {
      const size_t begin = chunk * kChunkRows;
      const size_t end = std::min(n, begin + kChunkRows);
      for (size_t c = 0; c < cols.size(); ++c) {
        const ColumnView& src = cols[c];
        if (!src.is_dictionary()) {
          for (size_t i = begin; i < end; ++i) {
            cells[c][i] = src[indices[i]];
          }
        } else if (code_owner[c] == c) {
          for (size_t i = begin; i < end; ++i) {
            (*codes[c])[i] = src.code(indices[i]);
          }
        }
      }
    });
  }
  std::vector<Column> out(cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    out[c] = cols[c].is_dictionary()
                 ? Column(cols[c].dictionary(), codes[code_owner[c]], 0, n)
                 : Column(std::move(cells[c]));
  }
  return out;
}

}  // namespace explainit::table
