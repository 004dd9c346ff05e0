// Catalog: table name -> data. Tables can be materialised (registered
// once) or provided lazily (a connector that scans the tsdb on demand —
// the role of the paper's Java data-source connectors).
//
// Providers come in two flavours. A plain TableProvider materialises the
// whole table on every scan. A HintedTableProvider additionally receives
// the planner's tsdb::ScanHints (time window, metric/tag constraints,
// projection) and should materialise only what they allow. Hints are a
// pure optimisation: the planner keeps every WHERE conjunct in the
// residual filter, so a provider that applies a hint partially (or not
// at all) costs rows, never correctness.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/table.h"
#include "tsdb/store.h"

namespace explainit::sql {

/// Lazily produces a table when the executor scans it.
using TableProvider = std::function<Result<table::Table>()>;

/// Lazily produces a table restricted by pushdown hints (e.g. a tsdb scan
/// that narrows its ScanRequest). Must fully honour the hints (see above).
using HintedTableProvider =
    std::function<Result<table::Table>(const tsdb::ScanHints&)>;

/// Capabilities and statistics of a hinted provider, beyond honouring
/// hints.
struct HintedProviderOptions {
  /// Live row-count estimate (e.g. SeriesStore::num_points), consulted by
  /// the cost-based planner on every planning pass. Invoked outside the
  /// catalog lock; must be cheap and thread-safe.
  std::function<size_t()> estimated_rows;
  /// True when the provider forwards ScanHints verbatim to a SeriesStore
  /// scan, so a RollupAggregate::kCount hint returns per-bucket point
  /// counts (with value = 1.0 raw fallbacks) exactly as the store
  /// contracts. Gates the planner's COUNT -> __SUM_COUNT rollup rewrite,
  /// which is only correct under that contract.
  bool exact_rollups = false;
};

/// Case-insensitive table registry.
///
/// Thread-safe: registrations take an exclusive lock, lookups a shared
/// one, so standing monitors can register score-history tables while
/// server sessions resolve scans concurrently. Provider invocation
/// happens outside the lock (the binding's std::function is copied out),
/// so a slow scan never blocks registration.
class Catalog {
 public:
  Catalog() = default;
  /// Copying snapshots the bindings — the monitor subsystem clones the
  /// engine catalog per standing query and re-registers its store tables
  /// with the run's window, without perturbing concurrent sessions.
  Catalog(const Catalog& other);
  Catalog& operator=(const Catalog& other);

  /// Registers a materialised table (replacing any previous binding).
  void RegisterTable(const std::string& name, table::Table table);

  /// Registers a lazy provider (hints are silently ignored).
  void RegisterProvider(const std::string& name, TableProvider provider);

  /// Registers a hint-aware provider (e.g. a pushdown-capable tsdb scan).
  void RegisterHintedProvider(const std::string& name,
                              HintedTableProvider provider);

  /// As above, with a live row estimator and capability flags.
  void RegisterHintedProvider(const std::string& name,
                              HintedTableProvider provider,
                              HintedProviderOptions options);

  /// Resolves and materialises a table; NotFound for unknown names.
  Result<table::Table> GetTable(const std::string& name) const;

  /// As GetTable, passing pushdown hints to hint-aware providers.
  Result<table::Table> GetTable(const std::string& name,
                                const tsdb::ScanHints& hints) const;

  /// True when the named table's provider honours ScanHints — the planner
  /// only drops pushed-down WHERE conjuncts for such tables.
  bool SupportsHints(const std::string& name) const;

  /// True when the table's provider was registered with
  /// HintedProviderOptions::exact_rollups (see there).
  bool SupportsExactRollups(const std::string& name) const;

  /// Row count: exact for materialised tables, live (estimator) for
  /// providers registered with one; nullopt otherwise. Feeds hash-join
  /// build-side selection and the cost-based planner's cardinality
  /// estimates.
  std::optional<size_t> EstimatedRows(const std::string& name) const;

  bool HasTable(const std::string& name) const;
  std::vector<std::string> ListTables() const;

 private:
  struct Entry {
    HintedTableProvider provider;
    bool hinted = false;
    bool exact_rollups = false;
    std::optional<size_t> rows;        // known for materialised tables
    std::function<size_t()> estimator;  // live estimate for providers
  };

  mutable std::shared_mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace explainit::sql
