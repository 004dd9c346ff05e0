#include "core/feature_family.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "core/engine.h"

namespace explainit::core {
namespace {

std::vector<tsdb::SeriesData> MakeSeries() {
  std::vector<tsdb::SeriesData> out;
  auto add = [&](const std::string& name, tsdb::TagSet tags,
                 std::vector<double> values) {
    tsdb::SeriesData s;
    s.meta.metric_name = name;
    s.meta.tags = std::move(tags);
    for (size_t i = 0; i < values.size(); ++i) {
      s.timestamps.push_back(static_cast<int64_t>(i) * 60);
    }
    s.values = std::move(values);
    out.push_back(std::move(s));
  };
  add("input_rate", {{"type", "event-1"}}, {1, 2, 3});
  add("input_rate", {{"type", "event-2"}}, {4, 5, 6});
  add("runtime", {{"component", "pipeline-1"}}, {7, 8, 9});
  add("disk", {{"host", "datanode-1"}, {"type", "read_latency"}}, {1, 1, 1});
  add("disk", {{"host", "datanode-2"}, {"type", "read_latency"}}, {2, 2, 2});
  add("disk", {{"host", "namenode-1"}, {"type", "read_latency"}}, {3, 3, 3});
  return out;
}

/// An engine whose store holds the MakeSeries() series, registered as
/// `tsdb` over their three minutes.
std::unique_ptr<Engine> MakeEngine() {
  auto store = std::make_shared<tsdb::SeriesStore>();
  for (const tsdb::SeriesData& s : MakeSeries()) {
    EXPECT_TRUE(store
                    ->WriteSeries(s.meta.metric_name, s.meta.tags,
                                  s.timestamps, s.values)
                    .ok());
  }
  auto engine = std::make_unique<Engine>(std::move(store));
  engine->RegisterStoreTable("tsdb", TimeRange{0, 180});
  return engine;
}

/// The families a Figure 4 sub-select over MakeEngine()'s `tsdb` yields.
std::vector<FeatureFamily> QueryFamilies(const std::string& sql) {
  auto rows = MakeEngine()->Query(sql);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (!rows.ok()) return {};
  auto fams = FamiliesFromTable(rows->table);
  EXPECT_TRUE(fams.ok()) << fams.status().ToString();
  return fams.ok() ? std::move(*fams) : std::vector<FeatureFamily>{};
}

/// §3.2's grouping by metric name: one family per metric, one feature
/// per series.
std::vector<FeatureFamily> ByMetricName() {
  return QueryFamilies(
      "SELECT timestamp AS ts, metric_name AS name, "
      "MAP(CONCAT(metric_name, tag), value) AS v FROM tsdb");
}

TEST(FamilyTest, GroupByMetricNameMirrorsPaperExample) {
  // §3.2: grouping by name gives input_rate{*}, runtime{*}, disk{*}.
  const std::vector<FeatureFamily> fams = ByMetricName();
  ASSERT_EQ(fams.size(), 3u);
  EXPECT_EQ(fams[0].name, "input_rate");
  EXPECT_EQ(fams[0].feature_names,
            (std::vector<std::string>{"input_rate{type=event-1}",
                                      "input_rate{type=event-2}"}));
  EXPECT_EQ(fams[1].name, "runtime");
  EXPECT_EQ(fams[1].feature_names,
            (std::vector<std::string>{"runtime{component=pipeline-1}"}));
  EXPECT_EQ(fams[2].name, "disk");
  EXPECT_EQ(fams[2].num_features(), 3u);
}

TEST(FamilyTest, GroupByTagMirrorsPaperExample) {
  // §3.2: grouping by host gives datanode-1, datanode-2, namenode-1, NULL.
  const std::vector<FeatureFamily> fams = QueryFamilies(
      "SELECT timestamp AS ts, "
      "CONCAT('*{host=', COALESCE(tag['host'], 'NULL'), '}') AS name, "
      "MAP(CONCAT(metric_name, tag), value) AS v FROM tsdb");
  ASSERT_EQ(fams.size(), 4u);
  EXPECT_EQ(fams[0].name, "*{host=NULL}");
  EXPECT_EQ(fams[0].num_features(), 3u);  // input_rate x2 + runtime
  EXPECT_EQ(fams[1].name, "*{host=datanode-1}");
  EXPECT_EQ(fams[2].name, "*{host=datanode-2}");
  EXPECT_EQ(fams[3].name, "*{host=namenode-1}");
  EXPECT_EQ(fams[3].num_features(), 1u);
}

TEST(FamilyTest, GroupByPattern) {
  // §3.2: "disk{host=datanode*}" — any datanode activity.
  const std::vector<FeatureFamily> fams = QueryFamilies(
      "SELECT timestamp AS ts, 'disk{host=datanode*}' AS name, "
      "MAP(CONCAT(metric_name, tag), value) AS v FROM tsdb "
      "WHERE CONCAT(metric_name, tag) LIKE 'disk{host=datanode%'");
  ASSERT_EQ(fams.size(), 1u);
  EXPECT_EQ(fams[0].name, "disk{host=datanode*}");
  EXPECT_EQ(fams[0].num_features(), 2u);
}

TEST(FamilyTest, DataMatrixLayout) {
  const std::vector<FeatureFamily> fams = ByMetricName();
  ASSERT_EQ(fams.size(), 3u);
  const FeatureFamily& disk = fams[2];
  EXPECT_EQ(disk.num_timestamps(), 3u);
  // Columns ordered by insertion order of matching series.
  EXPECT_EQ(disk.data(0, 0), 1.0);
  EXPECT_EQ(disk.data(0, 1), 2.0);
  EXPECT_EQ(disk.data(0, 2), 3.0);
  EXPECT_EQ(disk.feature_names[0],
            "disk{host=datanode-1, type=read_latency}");
  EXPECT_EQ(disk.FindFeature("disk{host=datanode-2, type=read_latency}"), 1);
  EXPECT_EQ(disk.FindFeature("nope"), -1);
}

TEST(FamilyTest, TableRoundTrip) {
  const std::vector<FeatureFamily> fams = ByMetricName();
  ASSERT_EQ(fams.size(), 3u);
  const FeatureFamily& disk = fams[2];
  table::Table t = FamilyToTable(disk);
  EXPECT_EQ(t.num_rows(), 3u);
  auto back = FamiliesFromTable(t);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ((*back)[0].name, "disk");
  EXPECT_EQ((*back)[0].num_features(), 3u);
  EXPECT_EQ((*back)[0].data, disk.data);
}

TEST(FamilyTest, FamiliesFromTableInterpolatesGaps) {
  table::Schema schema({{"ts", table::DataType::kTimestamp},
                        {"name", table::DataType::kString},
                        {"v", table::DataType::kMap}});
  table::Table t(schema);
  auto row = [&](int64_t ts, const std::string& fam, double v) {
    table::ValueMap m;
    m["x"] = table::Value::Double(v);
    t.AppendRow({table::Value::Timestamp(ts), table::Value::String(fam),
                 table::Value::Map(m)});
  };
  row(0, "a", 1.0);
  row(60, "a", 2.0);
  row(120, "a", 3.0);
  row(0, "b", 10.0);
  row(120, "b", 30.0);  // b missing at ts=60
  auto fams = FamiliesFromTable(t);
  ASSERT_TRUE(fams.ok());
  ASSERT_EQ(fams->size(), 2u);
  const FeatureFamily& b = (*fams)[1];
  EXPECT_EQ(b.num_timestamps(), 3u);
  EXPECT_EQ(b.data(1, 0), 10.0);  // nearest observation fill (tie -> earlier)
}

TEST(FamilyTest, SliceFamilyRestrictsRows) {
  const std::vector<FeatureFamily> fams = ByMetricName();
  ASSERT_EQ(fams.size(), 3u);
  FeatureFamily sliced = SliceFamily(fams[2], TimeRange{60, 180});
  EXPECT_EQ(sliced.num_timestamps(), 2u);
  EXPECT_EQ(sliced.timestamps[0], 60);
  EXPECT_EQ(sliced.num_features(), 3u);
}

TEST(FamilyTest, MergeFamiliesConcatenatesFeatures) {
  FeatureFamily merged = MergeFamilies(ByMetricName(), "all");
  EXPECT_EQ(merged.name, "all");
  EXPECT_EQ(merged.num_features(), 6u);
  EXPECT_EQ(merged.num_timestamps(), 3u);
  EXPECT_EQ(merged.feature_names[0], "input_rate/input_rate{type=event-1}");
  EXPECT_EQ(merged.feature_names[5],
            "disk/disk{host=namenode-1, type=read_latency}");
}

TEST(FamilyTest, AlignFamiliesOntoUnionGrid) {
  FeatureFamily a;
  a.name = "a";
  a.feature_names = {"f"};
  a.timestamps = {0, 60, 120};
  a.data = la::Matrix(3, 1, {1, 2, 3});
  FeatureFamily b;
  b.name = "b";
  b.feature_names = {"g"};
  b.timestamps = {60, 180};
  b.data = la::Matrix(2, 1, {20, 40});
  // Unsorted, with 120 twice: the later row wins.
  FeatureFamily c;
  c.name = "c";
  c.feature_names = {"h"};
  c.timestamps = {120, 0, 120};
  c.data = la::Matrix(3, 1, {5, 6, 7});
  // Already on the union grid, holding a NaN and a -0.0 that any
  // re-interpolation or copy through arithmetic would disturb.
  FeatureFamily d;
  d.name = "d";
  d.feature_names = {"i", "j"};
  d.timestamps = {0, 60, 120, 180};
  d.data = la::Matrix(4, 2, {0.1, -0.0, std::numeric_limits<double>::quiet_NaN(),
                             1, 2, 3, 4, 5});
  std::vector<FeatureFamily> fams = {a, b, c, d};
  ASSERT_TRUE(AlignFamilies(&fams).ok());
  const std::vector<EpochSeconds> grid = {0, 60, 120, 180};
  for (const FeatureFamily& f : fams) EXPECT_EQ(f.timestamps, grid);
  EXPECT_EQ(fams[0].data(3, 0), 3.0);  // trailing fill for a
  EXPECT_EQ(fams[1].data(0, 0), 20.0);  // leading fill for b
  EXPECT_EQ(fams[1].data(2, 0), 20.0);  // 120 closer to 60 than 180... tie rule
  EXPECT_EQ(fams[2].data, la::Matrix(4, 1, {6, 6, 7, 7}));
  ASSERT_EQ(fams[3].data.size(), d.data.size());
  EXPECT_EQ(std::memcmp(fams[3].data.data(), d.data.data(),
                        d.data.size() * sizeof(double)),
            0);
  EXPECT_EQ(fams[3].feature_names, d.feature_names);
}

// Every Figure 4 column rule at once: a ts column that is not first, a
// family column not called `name`, a null family, a repeated column
// name, MAP cells sharing a key with a plain column, and one family
// observed twice at the same timestamp.
table::Table EdgeCaseRows() {
  using table::DataType;
  using table::Value;
  table::Table t(table::Schema({{"b", DataType::kDouble},
                                {"ts", DataType::kTimestamp},
                                {"fam", DataType::kString},
                                {"a", DataType::kDouble},
                                {"m", DataType::kMap},
                                {"a", DataType::kInt64}}));
  const Value az =
      Value::Map({{"a", Value::Double(7)}, {"z", Value::Double(9)}});
  const Value c5 = Value::Map({{"c", Value::Double(5)}});
  const Value null;
  t.AppendRow({Value::Double(1), Value::Timestamp(120), Value::String("x"),
               Value::Double(2), az, Value::Int(3)});
  t.AppendRow({Value::Double(4), Value::Timestamp(0), Value::String("y"),
               null, c5, null});
  t.AppendRow({null, Value::Timestamp(60), null, Value::Double(6), null,
               Value::Int(8)});
  t.AppendRow({Value::Double(10), Value::Timestamp(120), Value::String("x"),
               Value::Double(11), null, Value::Int(12)});
  t.AppendRow({Value::Double(13), Value::Timestamp(180), Value::String("y"),
               Value::Double(14), az, Value::Int(15)});
  return t;
}

void ExpectFamily(const FeatureFamily& f, const std::string& name,
                  const std::vector<std::string>& features,
                  const std::vector<double>& row_major) {
  EXPECT_EQ(f.name, name);
  EXPECT_EQ(f.feature_names, features);
  EXPECT_EQ(f.timestamps, (std::vector<EpochSeconds>{0, 60, 120, 180}));
  EXPECT_EQ(f.data, la::Matrix(4, features.size(), row_major)) << name;
}

TEST(FamilyTest, FamiliesFromTableGolden) {
  // Expected values are those of the two-stage build (render the Figure 4
  // table, then unbox its maps), which must keep agreeing with this one.
  const table::Table rows = EdgeCaseRows();
  auto fams = FamiliesFromTable(rows, "dflt");
  ASSERT_TRUE(fams.ok()) << fams.status().ToString();
  ASSERT_EQ(fams->size(), 3u);
  // x: the second `a` column beats the map's a:7; the later row at 120
  // wins; m is null in the only row that names it.
  ExpectFamily((*fams)[0], "x", {"a", "b", "z", "m"},
               {12, 10, 9, 0, 12, 10, 9, 0, 12, 10, 9, 0, 12, 10, 9, 0});
  ExpectFamily((*fams)[1], "y", {"a", "b", "c", "z"},
               {15, 4, 5, 9, 15, 4, 5, 9, 15, 13, 5, 9, 15, 13, 5, 9});
  ExpectFamily((*fams)[2], "dflt", {"a", "b", "m"},
               {8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0});
  auto ff = NormalizeToFeatureFamilyTable(rows, "dflt");
  ASSERT_TRUE(ff.ok()) << ff.status().ToString();
  EXPECT_EQ(ff->num_rows(), rows.num_rows());
  auto via_ff = FamiliesFromTable(*ff);
  ASSERT_TRUE(via_ff.ok()) << via_ff.status().ToString();
  EXPECT_EQ(*via_ff, *fams);
}

TEST(FamilyTest, LaterNullCellHidesEarlierColumnOfTheSameRow) {
  using table::DataType;
  using table::Value;
  table::Table t(table::Schema({{"ts", DataType::kTimestamp},
                                {"a", DataType::kDouble},
                                {"m", DataType::kMap},
                                {"a", DataType::kDouble}}));
  const Value a_null = Value::Map({{"a", Value()}, {"q", Value::Double(1)}});
  t.AppendRow({Value::Timestamp(0), Value::Double(1), Value(),
               Value::Double(2)});
  t.AppendRow({Value::Timestamp(60), Value::Double(3), a_null, Value()});
  t.AppendRow({Value::Timestamp(90), Value::Double(4), Value(),
               Value::Double(5)});
  t.AppendRow({Value::Timestamp(120), Value::Double(6), a_null,
               Value::Double(7)});
  t.AppendRow({Value(), Value::Double(8), a_null, Value::Double(9)});
  auto fams = FamiliesFromTable(t);
  ASSERT_TRUE(fams.ok()) << fams.status().ToString();
  ASSERT_EQ(fams->size(), 1u);
  const FeatureFamily& f = (*fams)[0];
  EXPECT_EQ(f.name, "family");
  EXPECT_EQ(f.feature_names, (std::vector<std::string>{"a", "m", "q"}));
  EXPECT_EQ(f.timestamps, (std::vector<EpochSeconds>{0, 60, 90, 120}));
  // At 60 the later null `a` cells hide the 3, so the hole takes the
  // earlier neighbour (ts 0) on the index-distance tie. The null-ts row
  // is skipped.
  EXPECT_EQ(f.data, la::Matrix(4, 3, {2, 0, 1, 2, 0, 1, 5, 0, 1, 7, 0, 1}));
}

TEST(FamilyTest, CodedNameColumnBuildsTheSameFamiliesAsBoxed) {
  using table::DataType;
  using table::Value;
  // A dictionary that repeats "cpu" (codes 0 and 2 name one family),
  // holds a NULL name (the fallback family) and an entry no row uses.
  auto names = std::make_shared<table::Dictionary>(table::Dictionary{
      Value::String("cpu"), Value::String("mem"), Value::String("cpu"),
      Value(), Value::String("unused")});
  auto codes = std::make_shared<table::CodeArray>(
      table::CodeArray{1, 0, 2, 3, 2, 1, 0, 3});
  std::vector<Value> ts, v, w, m;
  for (size_t r = 0; r < codes->size(); ++r) {
    ts.push_back(r == 5 ? Value() : Value::Timestamp(60 * (r % 4)));
    v.push_back(Value::Double(static_cast<double>(r)));
    w.push_back(r == 3 ? Value() : Value::Double(10.0 + r));
    // A MAP cell whose key repeats the `v` column: the later column wins.
    m.push_back(r % 2 == 0 ? Value::Map({{"v", Value::Double(-1.0 * r)},
                                         {"k", Value::Double(0.5 * r)}})
                           : Value());
  }
  std::vector<table::Column> cols;
  cols.emplace_back(ts);
  cols.emplace_back(names, codes, 0, codes->size());
  cols.emplace_back(v);
  cols.emplace_back(w);
  cols.emplace_back(m);
  const table::Schema schema({{"ts", DataType::kTimestamp},
                              {"name", DataType::kString},
                              {"v", DataType::kDouble},
                              {"w", DataType::kDouble},
                              {"m", DataType::kMap}});
  auto coded = table::Table::FromColumns(schema, std::move(cols));
  ASSERT_TRUE(coded.ok());
  ASSERT_TRUE(coded->column(1).is_dictionary());
  table::Table boxed(schema);
  for (size_t r = 0; r < coded->num_rows(); ++r) boxed.AppendRow(coded->Row(r));
  ASSERT_FALSE(boxed.column(1).is_dictionary());

  auto by_code = FamiliesFromTable(*coded, "dflt");
  auto by_string = FamiliesFromTable(boxed, "dflt");
  ASSERT_TRUE(by_code.ok()) << by_code.status().ToString();
  ASSERT_TRUE(by_string.ok()) << by_string.status().ToString();
  ASSERT_EQ(by_code->size(), 3u);
  EXPECT_EQ((*by_code)[0].name, "mem");
  EXPECT_EQ((*by_code)[1].name, "cpu");
  EXPECT_EQ((*by_code)[2].name, "dflt");
  EXPECT_EQ(*by_code, *by_string);

  // The Figure 4 rendering keeps the coding and builds the same families.
  auto ff = NormalizeToFeatureFamilyTable(*coded, "dflt");
  ASSERT_TRUE(ff.ok()) << ff.status().ToString();
  EXPECT_TRUE(ff->column(1).is_dictionary());
  auto ff_boxed = NormalizeToFeatureFamilyTable(boxed, "dflt");
  ASSERT_TRUE(ff_boxed.ok());
  ASSERT_EQ(ff->num_rows(), ff_boxed->num_rows());
  for (size_t r = 0; r < ff->num_rows(); ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(ff->At(r, c).ToString(), ff_boxed->At(r, c).ToString());
    }
  }
  auto via_ff = FamiliesFromTable(*ff);
  ASSERT_TRUE(via_ff.ok());
  EXPECT_EQ(*via_ff, *by_string);
}

}  // namespace
}  // namespace explainit::core
