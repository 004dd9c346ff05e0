// The planner's cardinality/cost model. Deliberately coarse: the point is
// to order joins and place aggregates sensibly, not to predict runtimes.
// All estimates are doubles in "rows"; kUnknownRows (< 0) marks a node the
// catalog has no estimate for, and consumers substitute kDefaultRows so a
// single unknown relation does not disable optimisation.
//
// Scan estimates start from Catalog::EstimatedRows (live for store-backed
// tables, see Engine::RegisterStoreTable) and apply fixed selectivity
// factors per pushdown hint (time window, metric glob, tag equality).
// Join estimates use the textbook independence model: the cross product
// of the input estimates times 1/max(|L|,|R|) per distinct equality
// conjunct connecting the two sides. Join *cost* is build + probe +
// output rows — the work a hash join actually does.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tsdb/store.h"

namespace explainit::sql::cost {

/// Sentinel for "the catalog has no estimate".
inline constexpr double kUnknownRows = -1.0;
/// Stand-in row count for relations without an estimate (subqueries,
/// unregistered providers). Big enough that a known-small dimension table
/// sorts before it, small enough that a known-huge fact table sorts after.
inline constexpr double kDefaultRows = 1000.0;

/// Clamps an estimate to at least one row (an empty estimate would zero
/// out every product it participates in and make all orders tie).
double ClampRows(double rows);

/// `rows` if known (>= 0), else kDefaultRows; always clamped to >= 1.
double KnownOrDefault(double rows);

/// Fraction of a table a hinted scan is expected to materialise.
/// A bounded time window keeps 1/4, a set of k metric names min(1, k/5),
/// and each tag equality 1/5 (independent). Resolution hints (rollup tiers) keep
/// 1/min_step: a 60 s tier over 1 s-ish raw data is a 60x reduction, and
/// over-estimating the reduction only ever makes the planner favour the
/// scan that carries the hint, which is the scan that got cheaper.
double ScanSelectivity(const tsdb::ScanHints& hints);

/// Estimated output rows of `left_rows x right_rows` joined across
/// `num_equalities` distinct equality conjuncts. With zero equalities this
/// is the cross product. Inputs may be kUnknownRows.
double JoinOutputRows(double left_rows, double right_rows,
                      size_t num_equalities);

/// Cost of one hash join step: build + probe + output.
double JoinStepCost(double build_rows, double probe_rows, double output_rows);

/// Estimated output rows of a grouping aggregate over `input_rows`
/// (the usual 10x reduction guess).
double AggregateOutputRows(double input_rows);

/// Estimated output rows of a filter over `input_rows` (selectivity 1/2).
double FilterOutputRows(double input_rows);

}  // namespace explainit::sql::cost
