#include "table/column_batch.h"

#include "common/logging.h"

namespace explainit::table {

ColumnBatch ColumnBatch::View(const Table& t, size_t row_begin, size_t rows,
                              const Schema* schema_override) {
  const Schema* schema =
      schema_override != nullptr ? schema_override : &t.schema();
  EXPLAINIT_CHECK(schema->num_fields() == t.num_columns(),
                  "schema override width " << schema->num_fields()
                                           << " != table width "
                                           << t.num_columns());
  EXPLAINIT_CHECK(row_begin + rows <= t.num_rows(),
                  "batch window [" << row_begin << ", " << row_begin + rows
                                   << ") exceeds " << t.num_rows()
                                   << " rows");
  ColumnBatch batch(schema, rows);
  batch.cols_.reserve(t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    batch.AddBorrowedColumn(ColumnView(t.column(c), row_begin));
  }
  return batch;
}

void ColumnBatch::AddOwnedColumn(Column data) {
  EXPLAINIT_CHECK(data.size() == num_rows_,
                  "owned column size " << data.size() << " != batch rows "
                                       << num_rows_);
  owned_.push_back(std::make_shared<const Column>(std::move(data)));
  cols_.emplace_back(*owned_.back(), 0);
}

void ColumnBatch::Share(const ColumnBatch& other) {
  owned_.insert(owned_.end(), other.owned_.begin(), other.owned_.end());
}

ColumnBatch ColumnBatch::Slice(size_t begin, size_t n) const {
  EXPLAINIT_CHECK(begin + n <= num_rows_, "slice [" << begin << ", "
                                                    << begin + n
                                                    << ") exceeds "
                                                    << num_rows_ << " rows");
  ColumnBatch out(schema_, n);
  out.cols_.reserve(cols_.size());
  for (const ColumnView& col : cols_) {
    out.cols_.emplace_back(col.column(), col.offset() + begin);
  }
  out.Share(*this);
  return out;
}

ColumnBatch ColumnBatch::Gather(const std::vector<uint32_t>& indices) const {
  ColumnBatch out(schema_, indices.size());
  for (Column& col : GatherColumns(cols_, indices.data(), indices.size())) {
    out.AddOwnedColumn(std::move(col));
  }
  return out;
}

void ColumnBatch::Truncate(size_t n) {
  if (n < num_rows_) num_rows_ = n;
}

void ColumnBatch::AppendTo(Table* out) const {
  out->AppendColumns(cols_, num_rows_);
}

std::vector<Column> ConcatBatches(const Schema& schema,
                                  const std::vector<ColumnBatch>& batches) {
  const size_t width = schema.num_fields();
  size_t total = 0;
  for (const ColumnBatch& b : batches) total += b.num_rows();
  // Per column: its dictionary when every batch codes it with the same
  // one, and the column whose code array it shares in every batch.
  std::vector<std::shared_ptr<const Dictionary>> dicts(width);
  std::vector<size_t> code_owner(width);
  for (size_t c = 0; c < width; ++c) {
    code_owner[c] = c;
    if (batches.empty() || !batches[0].column(c).is_dictionary()) continue;
    const auto& dict = batches[0].column(c).dictionary();
    bool same = true;
    for (const ColumnBatch& b : batches) {
      same = same && b.column(c).dictionary() == dict;
    }
    if (!same) continue;
    dicts[c] = dict;
    for (size_t o = 0; o < c; ++o) {
      if (dicts[o] == nullptr || code_owner[o] != o) continue;
      bool shared = true;
      for (const ColumnBatch& b : batches) {
        shared = shared && b.column(o).codes() == b.column(c).codes();
      }
      if (shared) {
        code_owner[c] = o;
        break;
      }
    }
  }
  std::vector<std::vector<Value>> cells(width);
  std::vector<std::shared_ptr<CodeArray>> codes(width);
  for (size_t c = 0; c < width; ++c) {
    if (dicts[c] == nullptr) {
      cells[c].resize(total);
    } else if (code_owner[c] == c) {
      codes[c] = std::make_shared<CodeArray>(total);
    }
  }
  size_t base = 0;
  for (const ColumnBatch& batch : batches) {
    for (size_t c = 0; c < width; ++c) {
      const ColumnView& src = batch.column(c);
      if (dicts[c] == nullptr) {
        for (size_t r = 0; r < batch.num_rows(); ++r) {
          cells[c][base + r] = src[r];
        }
      } else if (code_owner[c] == c) {
        std::copy(src.codes(), src.codes() + batch.num_rows(),
                  codes[c]->begin() + static_cast<std::ptrdiff_t>(base));
      }
    }
    base += batch.num_rows();
  }
  std::vector<Column> cols(width);
  for (size_t c = 0; c < width; ++c) {
    cols[c] = dicts[c] == nullptr
                  ? Column(std::move(cells[c]))
                  : Column(dicts[c], codes[code_owner[c]], 0, total);
  }
  return cols;
}

}  // namespace explainit::table
