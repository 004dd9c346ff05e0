// Source operators: catalog table scans (with pushdown hints, projection
// pruning and zero-copy column qualification), subquery scans, the
// synthetic single-row source for FROM-less SELECTs, and UNION ALL
// concatenation.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sql/catalog.h"
#include "sql/operators/operator.h"

namespace explainit::sql {

/// Scans one catalog table, streaming fixed-size zero-copy batches.
///
/// The planner attaches tsdb::ScanHints (applied by hint-aware providers
/// at the store), a projection (columns the query references; others are
/// dropped right after materialisation) and, inside joins, a qualifier
/// that renames columns to "qualifier.name" without copying any cells.
class CatalogScanOperator : public Operator {
 public:
  CatalogScanOperator(const Catalog* catalog, std::string table_name,
                      tsdb::ScanHints hints, std::string qualifier,
                      std::optional<std::vector<std::string>> projection)
      : catalog_(catalog),
        table_name_(std::move(table_name)),
        hints_(std::move(hints)),
        qualifier_(std::move(qualifier)),
        projection_(std::move(projection)) {}

  const table::Schema& output_schema() const override { return *schema_; }
  std::string name() const override { return "Scan"; }
  void AccumulateExecStats(ExecStats* stats) const override {
    ++stats->tables_scanned;
    stats->rows_scanned += table_.num_rows();
    if (hints_.min_step_seconds > 0) ++stats->rollup_hinted_scans;
  }
  bool StableBatches() const override { return true; }

 protected:
  /// The scan's batches are views into table_, which lives as long as
  /// the operator; sharded consumers read it in place.
  const table::Table* MaterializedTable() const override { return &table_; }
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  const Catalog* catalog_;
  std::string table_name_;
  tsdb::ScanHints hints_;
  std::string qualifier_;
  std::optional<std::vector<std::string>> projection_;

  table::Table table_;
  table::Schema qualified_schema_;
  const table::Schema* schema_ = nullptr;  // table_'s or qualified_
  size_t pos_ = 0;
};

/// Adapts a planned subquery (its operator tree) as a FROM source,
/// optionally qualifying its column names for join scoping.
class SubqueryScanOperator : public Operator {
 public:
  SubqueryScanOperator(std::unique_ptr<Operator> input,
                       std::string qualifier);

  const table::Schema& output_schema() const override { return *schema_; }
  std::string name() const override { return "SubqueryScan"; }
  bool StableBatches() const override { return input_->StableBatches(); }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  Operator* input_;
  std::string qualifier_;
  table::Schema qualified_schema_;
  const table::Schema* schema_ = nullptr;
};

/// SELECT without FROM: one synthetic zero-column row.
class SingleRowOperator : public Operator {
 public:
  const table::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "SingleRow"; }
  bool StableBatches() const override { return true; }

 protected:
  Status OpenImpl() override { return Status::OK(); }
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  table::Schema schema_;
  bool done_ = false;
};

/// Streams each input in turn (UNION ALL): widths must match, field names
/// of the first branch win.
class UnionAllOperator : public Operator {
 public:
  explicit UnionAllOperator(
      std::vector<std::unique_ptr<Operator>> branches);

  const table::Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  std::string name() const override { return "UnionAll"; }
  bool StableBatches() const override {
    for (size_t i = 0; i < num_children(); ++i) {
      if (!child(i)->StableBatches()) return false;
    }
    return true;
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  size_t current_ = 0;
};

/// "qualifier.name" rename of every field (fields already containing a
/// dot keep their name). The zero-copy successor of the old QualifySchema.
table::Schema QualifyFields(const table::Schema& schema,
                            const std::string& qualifier);

}  // namespace explainit::sql
