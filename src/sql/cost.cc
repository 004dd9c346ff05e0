#include "sql/cost.h"

#include <algorithm>

namespace explainit::sql::cost {

double ClampRows(double rows) { return std::max(rows, 1.0); }

double KnownOrDefault(double rows) {
  return ClampRows(rows >= 0.0 ? rows : kDefaultRows);
}

double ScanSelectivity(const tsdb::ScanHints& hints) {
  double factor = 1.0;
  if (hints.range.has_value()) factor *= 0.25;
  if (hints.metric_names.has_value()) {
    factor *= std::min(1.0, 0.2 * static_cast<double>(
                                      hints.metric_names->size()));
  }
  for (size_t i = 0; i < hints.tag_filter.size(); ++i) factor *= 0.2;
  if (hints.min_step_seconds > 1) {
    factor /= static_cast<double>(hints.min_step_seconds);
  }
  return factor;
}

double JoinOutputRows(double left_rows, double right_rows,
                      size_t num_equalities) {
  const double l = KnownOrDefault(left_rows);
  const double r = KnownOrDefault(right_rows);
  double rows = l * r;
  for (size_t i = 0; i < num_equalities; ++i) rows /= std::max(l, r);
  return ClampRows(rows);
}

double JoinStepCost(double build_rows, double probe_rows,
                    double output_rows) {
  return KnownOrDefault(build_rows) + KnownOrDefault(probe_rows) +
         ClampRows(output_rows);
}

double AggregateOutputRows(double input_rows) {
  if (input_rows < 0.0) return kUnknownRows;
  return ClampRows(input_rows * 0.1);
}

double FilterOutputRows(double input_rows) {
  if (input_rows < 0.0) return kUnknownRows;
  return ClampRows(input_rows * 0.5);
}

}  // namespace explainit::sql::cost
