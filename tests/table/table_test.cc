#include "table/table.h"

#include <gtest/gtest.h>

#include "table/column_batch.h"

namespace explainit::table {
namespace {

Table MakeSample() {
  Schema schema({{"timestamp", DataType::kTimestamp},
                 {"name", DataType::kString},
                 {"value", DataType::kDouble}});
  Table t(schema);
  t.AppendRow({Value::Timestamp(60), Value::String("runtime"),
               Value::Double(10.0)});
  t.AppendRow({Value::Timestamp(120), Value::String("latency"),
               Value::Double(5.0)});
  t.AppendRow({Value::Timestamp(0), Value::String("runtime"),
               Value::Double(12.0)});
  return t;
}

TEST(SchemaTest, FieldIndexCaseInsensitive) {
  Schema s({{"Timestamp", DataType::kTimestamp}, {"value", DataType::kDouble}});
  EXPECT_EQ(s.FieldIndex("timestamp"), 0u);
  EXPECT_EQ(s.FieldIndex("VALUE"), 1u);
  EXPECT_FALSE(s.FieldIndex("missing").has_value());
}

TEST(SchemaTest, ToStringListsFields) {
  Schema s({{"a", DataType::kDouble}, {"b", DataType::kString}});
  EXPECT_EQ(s.ToString(), "(a: DOUBLE, b: STRING)");
}

TEST(TableTest, AppendAndAccess) {
  Table t = MakeSample();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.At(0, 1).AsString(), "runtime");
  EXPECT_EQ(t.At(1, 2).AsDouble(), 5.0);
  auto row = t.Row(2);
  EXPECT_EQ(row[0].AsTimestamp(), 0);
  EXPECT_EQ(row[2].AsDouble(), 12.0);
}

TEST(TableTest, SelectColumnsReorders) {
  Table t = MakeSample();
  auto sel = t.SelectColumns({"value", "name"});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->num_columns(), 2u);
  EXPECT_EQ(sel->schema().field(0).name, "value");
  EXPECT_EQ(sel->At(0, 0).AsDouble(), 10.0);
  EXPECT_EQ(sel->At(0, 1).AsString(), "runtime");
}

TEST(TableTest, SelectMissingColumnFails) {
  Table t = MakeSample();
  auto sel = t.SelectColumns({"nope"});
  EXPECT_FALSE(sel.ok());
  EXPECT_TRUE(sel.status().IsNotFound());
}

TEST(TableTest, SortAscendingByTimestamp) {
  Table t = MakeSample();
  auto sorted = t.SortBy("timestamp");
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->At(0, 0).AsTimestamp(), 0);
  EXPECT_EQ(sorted->At(1, 0).AsTimestamp(), 60);
  EXPECT_EQ(sorted->At(2, 0).AsTimestamp(), 120);
}

TEST(TableTest, SortDescendingByValue) {
  Table t = MakeSample();
  auto sorted = t.SortBy("value", /*ascending=*/false);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->At(0, 2).AsDouble(), 12.0);
  EXPECT_EQ(sorted->At(2, 2).AsDouble(), 5.0);
}

TEST(TableTest, SortIsStable) {
  Schema schema({{"k", DataType::kInt64}, {"ord", DataType::kInt64}});
  Table t(schema);
  t.AppendRow({Value::Int(1), Value::Int(0)});
  t.AppendRow({Value::Int(0), Value::Int(1)});
  t.AppendRow({Value::Int(1), Value::Int(2)});
  t.AppendRow({Value::Int(0), Value::Int(3)});
  auto sorted = t.SortBy("k");
  ASSERT_TRUE(sorted.ok());
  // Equal keys preserve input order.
  EXPECT_EQ(sorted->At(0, 1).AsInt(), 1);
  EXPECT_EQ(sorted->At(1, 1).AsInt(), 3);
  EXPECT_EQ(sorted->At(2, 1).AsInt(), 0);
  EXPECT_EQ(sorted->At(3, 1).AsInt(), 2);
}

TEST(TableTest, UnionAll) {
  Table a = MakeSample();
  Table b = MakeSample();
  ASSERT_TRUE(a.UnionAll(b).ok());
  EXPECT_EQ(a.num_rows(), 6u);
  EXPECT_EQ(a.At(3, 1).AsString(), "runtime");
}

TEST(TableTest, UnionAllWidthMismatchFails) {
  Table a = MakeSample();
  Table b(Schema({{"x", DataType::kDouble}}));
  EXPECT_FALSE(a.UnionAll(b).ok());
}

TEST(TableTest, Truncate) {
  Table t = MakeSample();
  t.Truncate(1);
  EXPECT_EQ(t.num_rows(), 1u);
  t.Truncate(100);  // no-op past the end
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, ToStringShowsHeaderAndRows) {
  Table t = MakeSample();
  std::string s = t.ToString();
  EXPECT_NE(s.find("timestamp"), std::string::npos);
  EXPECT_NE(s.find("runtime"), std::string::npos);
  std::string truncated = t.ToString(1);
  EXPECT_NE(truncated.find("more rows"), std::string::npos);
}

TEST(TableTest, EmptyTable) {
  Table t;
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_columns(), 0u);
}

// --- dictionary columns ----------------------------------------------------

/// A series-coded table: `name` and `tag` are dictionary columns sharing
/// one code array (3 series, rows 0-1 / 2-4 / 5), `v` is boxed.
Table MakeCoded(std::shared_ptr<const Dictionary> names = nullptr) {
  if (names == nullptr) {
    names = std::make_shared<Dictionary>(Dictionary{
        Value::String("cpu"), Value::String("mem"), Value::String("cpu")});
  }
  auto tags = std::make_shared<Dictionary>(
      Dictionary{Value::Map({{"host", Value::String("h0")}}),
                 Value::Map({{"host", Value::String("h1")}}),
                 Value::Map({{"host", Value::String("h2")}})});
  auto codes = std::make_shared<CodeArray>(CodeArray{0, 0, 1, 1, 1, 2});
  std::vector<Column> cols;
  cols.emplace_back(names, codes, 0, codes->size());
  cols.emplace_back(tags, codes, 0, codes->size());
  std::vector<Value> v;
  for (int i = 0; i < 6; ++i) v.push_back(Value::Double(i));
  cols.emplace_back(std::move(v));
  auto t = Table::FromColumns(Schema({{"name", DataType::kString},
                                      {"tag", DataType::kMap},
                                      {"v", DataType::kDouble}}),
                              std::move(cols));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(DictionaryColumnTest, AtReferencesPointIntoTheDictionary) {
  const Table t = MakeCoded();
  const Column& name = t.column(0);
  ASSERT_TRUE(name.is_dictionary());
  EXPECT_FALSE(t.column(2).is_dictionary());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(&t.At(r, 0), &(*name.dictionary())[name.codes()[r]]) << r;
    EXPECT_EQ(&t.At(r, 1), &(*t.column(1).dictionary())[name.codes()[r]]);
  }
  EXPECT_EQ(t.At(4, 0).AsString(), "mem");
  EXPECT_EQ(t.At(5, 1).AsMap()->at("host").AsString(), "h2");
  // Row() and ToString() read through the same accessor.
  EXPECT_EQ(t.Row(0)[0].AsString(), "cpu");
  EXPECT_NE(t.ToString().find("host=h1"), std::string::npos);
}

TEST(DictionaryColumnTest, ViewOffsetsReadTheirRows) {
  const Table t = MakeCoded();
  const ColumnBatch b = ColumnBatch::View(t, 2, 3);
  ASSERT_EQ(b.num_rows(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(&b.At(r, c), &t.At(r + 2, c)) << r << "," << c;
    }
  }
  EXPECT_EQ(b.column(0).code_offset(), 2u);
  EXPECT_EQ(b.column(0).codes(), b.column(1).codes());
  EXPECT_EQ(b.column(0).code(2), 1u);
}

TEST(DictionaryColumnTest, GatherAndTruncateKeepSharedCodes) {
  const Table t = MakeCoded();
  const ColumnBatch all = ColumnBatch::View(t, 0, t.num_rows());
  const ColumnBatch g = all.Gather({5, 0, 3});
  ASSERT_EQ(g.num_rows(), 3u);
  ASSERT_TRUE(g.column(0).is_dictionary());
  EXPECT_EQ(g.column(0).codes(), g.column(1).codes());
  EXPECT_EQ(g.column(0).dictionary(), t.column(0).dictionary());
  EXPECT_FALSE(g.column(2).is_dictionary());
  EXPECT_EQ(g.At(0, 1).AsMap()->at("host").AsString(), "h2");
  EXPECT_EQ(g.At(2, 0).AsString(), "mem");
  EXPECT_EQ(g.At(1, 2).AsDouble(), 0.0);

  Table cut = t;
  cut.Truncate(3);
  EXPECT_EQ(cut.num_rows(), 3u);
  EXPECT_EQ(cut.column(0).code_array(), t.column(0).code_array());
  EXPECT_EQ(cut.column(0).code_array(), cut.column(1).code_array());
  EXPECT_EQ(cut.column(0).size(), 3u);
  EXPECT_EQ(cut.At(2, 0).AsString(), "mem");
}

TEST(DictionaryColumnTest, AppendKeepsTheSameDictionaryAndBoxesAnother) {
  const Table t = MakeCoded();
  // A drain of consecutive views extends the same code array.
  Table drained(t.schema());
  ColumnBatch::View(t, 0, 2).AppendTo(&drained);
  ColumnBatch::View(t, 2, 4).AppendTo(&drained);
  ASSERT_EQ(drained.num_rows(), 6u);
  EXPECT_EQ(drained.column(0).code_array(), t.column(0).code_array());
  EXPECT_EQ(drained.column(1).code_array(), t.column(0).code_array());

  // Same dictionary, non-contiguous rows: still coded, still shared.
  Table same = t;
  ASSERT_TRUE(same.UnionAll(t).ok());
  ASSERT_EQ(same.num_rows(), 12u);
  ASSERT_TRUE(same.column(0).is_dictionary());
  EXPECT_EQ(same.column(0).dictionary(), t.column(0).dictionary());
  EXPECT_EQ(same.column(0).code_array(), same.column(1).code_array());
  EXPECT_NE(same.column(0).code_array(), t.column(0).code_array());
  for (size_t r = 0; r < 12; ++r) {
    EXPECT_TRUE(same.At(r, 0).Equals(t.At(r % 6, 0))) << r;
  }
  // The original rows are untouched by the append.
  EXPECT_EQ(t.num_rows(), 6u);
  EXPECT_EQ(t.column(0).size(), 6u);

  // A different dictionary object (even with equal entries) boxes.
  const Table other = MakeCoded();
  Table mixed = t;
  ASSERT_TRUE(mixed.UnionAll(other).ok());
  ASSERT_EQ(mixed.num_rows(), 12u);
  EXPECT_FALSE(mixed.column(0).is_dictionary());
  EXPECT_FALSE(mixed.column(1).is_dictionary());
  for (size_t r = 0; r < 12; ++r) {
    EXPECT_EQ(mixed.At(r, 0).AsString(), t.At(r % 6, 0).AsString()) << r;
  }
  // AppendRow boxes a coded column too.
  Table rows = t;
  rows.AppendRow({Value::String("disk"), Value::Null(), Value::Double(9)});
  EXPECT_FALSE(rows.column(0).is_dictionary());
  EXPECT_EQ(rows.At(6, 0).AsString(), "disk");
  EXPECT_EQ(rows.At(1, 0).AsString(), "cpu");
}

TEST(DictionaryColumnTest, RepeatedAppendsGrowOneOwnedCodeArray) {
  const Table t = MakeCoded();
  const ColumnBatch all = ColumnBatch::View(t, 0, t.num_rows());
  Table out(t.schema());
  for (int i = 0; i < 5; ++i) all.Gather({1, 4}).AppendTo(&out);
  ASSERT_EQ(out.num_rows(), 10u);
  ASSERT_TRUE(out.column(0).is_dictionary());
  EXPECT_EQ(out.column(0).code_array(), out.column(1).code_array());
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(out.At(r, 0).AsString(), r % 2 == 0 ? "cpu" : "mem") << r;
  }
}

TEST(DictionaryColumnTest, ConcatBatchesKeepsOneDictionary) {
  const Table t = MakeCoded();
  std::vector<ColumnBatch> parts;
  parts.push_back(ColumnBatch::View(t, 3, 3));
  parts.push_back(ColumnBatch::View(t, 0, 2));
  std::vector<Column> cols = ConcatBatches(t.schema(), parts);
  auto out = Table::FromColumns(t.schema(), std::move(cols));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 5u);
  EXPECT_TRUE(out->column(0).is_dictionary());
  EXPECT_EQ(out->column(0).code_array(), out->column(1).code_array());
  const size_t from[] = {3, 4, 5, 0, 1};
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(out->At(r, c).Equals(t.At(from[r], c))) << r << "," << c;
    }
  }
}

TEST(DictionaryColumnTest, SortAndSelectKeepCoding) {
  const Table t = MakeCoded();
  auto sorted = t.SortBy("v", /*ascending=*/false);
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE(sorted->column(0).is_dictionary());
  EXPECT_EQ(sorted->column(0).code_array(), sorted->column(1).code_array());
  EXPECT_EQ(sorted->At(0, 1).AsMap()->at("host").AsString(), "h2");
  auto sel = t.SelectColumns({"tag", "name"});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->column(0).code_array(), t.column(0).code_array());
  EXPECT_EQ(sel->At(3, 1).AsString(), "mem");
}

}  // namespace
}  // namespace explainit::table
